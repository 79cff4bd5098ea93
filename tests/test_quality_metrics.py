"""Partition-quality metrics, oracle-checked against DuckDB (paper Sec 2.1)."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.datasets import generate, n_vertices_of, split_to_spark
from repro.graphs.generators import to_spark, undirected_view
from repro.oracle import assert_equivalent
from repro.partitioning import quality
from repro.partitioning.base import assignment_to_spark, run_partitioner
from repro.partitioning.edge.dbh import DBHPartitioner
from repro.partitioning.edge.random_ep import RandomEdgePartitioner
from repro.partitioning.vertex.random_vp import RandomVertexPartitioner
from repro.simulate.distgnn import partition_stats


@pytest.fixture(scope="module")
def graph(spark):
    edges = undirected_view(generate("EN", scale=1e-4, seed=0))
    n = n_vertices_of(edges)
    return edges, n


#: Covered (part, vertex) pairs ``V(p_i)`` of a vertex-cut assignment.
COVERED_SQL = """
    SELECT DISTINCT part, vertex FROM (
      SELECT part, src AS vertex FROM assign
      UNION ALL
      SELECT part, dst AS vertex FROM assign
    )
"""


class TestVertexCutQuality:
    """``distgnn.partition_stats``, the one vertex-cut path, against DuckDB."""

    K = 4

    @pytest.fixture(scope="class")
    def run(self, graph):
        edges, n = graph
        return run_partitioner(DBHPartitioner(), edges, self.K, n_vertices=n)

    def test_per_part_stats_match_duckdb(self, run):
        # A vertex's master is the lowest-numbered part covering it.
        st = partition_stats(run.assignment, self.K)
        got = pd.DataFrame(
            {
                "part": range(self.K),
                "n_edges": st.edges,
                "n_vertices": st.vertices,
                "n_replicas": st.replicas,
            }
        )
        assert_equivalent(
            got,
            f"""
            WITH cov AS ({COVERED_SQL}),
            e AS (SELECT part, COUNT(*) AS n FROM assign GROUP BY part),
            v AS (SELECT part, COUNT(*) AS n FROM cov GROUP BY part),
            m AS (
              SELECT part, COUNT(*) AS n FROM (
                SELECT vertex, MIN(part) AS part FROM cov GROUP BY vertex
              ) GROUP BY part
            )
            SELECT p.part,
                   COALESCE(e.n, 0) AS n_edges,
                   COALESCE(v.n, 0) AS n_vertices,
                   COALESCE(v.n, 0) - COALESCE(m.n, 0) AS n_replicas
            FROM (SELECT range AS part FROM range({self.K})) p
            LEFT JOIN e ON e.part = p.part
            LEFT JOIN v ON v.part = p.part
            LEFT JOIN m ON m.part = p.part
            """,
            assign=run.assignment,
        )

    def test_vertex_cut_quality_matches_pandas(self, graph):
        edges, n = graph
        run = run_partitioner(RandomEdgePartitioner(), edges, 4, n_vertices=n)
        q = partition_stats(run.assignment, 4)
        a = run.assignment
        epp = a.groupby("part").size().reindex(range(4), fill_value=0)
        cov = pd.concat(
            [
                a[["part", "src"]].rename(columns={"src": "v"}),
                a[["part", "dst"]].rename(columns={"dst": "v"}),
            ]
        ).drop_duplicates()
        vpp = cov.groupby("part").size().reindex(range(4), fill_value=0)
        assert q.edges.tolist() == epp.tolist()
        assert q.vertices.tolist() == vpp.tolist()
        assert np.isclose(q.replication_factor, vpp.sum() / cov["v"].nunique())
        assert np.isclose(q.edge_balance, epp.max() / epp.mean())
        assert np.isclose(q.vertex_balance, vpp.max() / vpp.mean())
        assert q.n_edges == len(a)
        assert q.n_vertices == cov["v"].nunique()

    def test_perfect_partition_rf_is_one(self):
        # Two disjoint triangles, each on its own partition: RF == 1.
        a = pd.DataFrame(
            {
                "src": [0, 1, 0, 3, 4, 3],
                "dst": [1, 2, 2, 4, 5, 5],
                "part": [0, 0, 0, 1, 1, 1],
            }
        )
        st = partition_stats(a, 2)
        assert st.replication_factor == 1.0
        assert st.edge_balance == 1.0
        assert st.vertex_balance == 1.0
        assert st.replicas.tolist() == [0, 0]


class TestEdgeCutQuality:
    def test_cut_edges_df_matches_duckdb(self, spark, graph):
        edges, n = graph
        run = run_partitioner(RandomVertexPartitioner(), edges, 4, n_vertices=n)
        edges_sdf = to_spark(spark, edges)
        assign = assignment_to_spark(spark, run)
        got = quality.cut_edges_df(edges_sdf, assign)
        assert_equivalent(
            got,
            """
            SELECT COUNT(*) AS n_edges,
                   SUM(CASE WHEN pa.part <> pb.part THEN 1 ELSE 0 END) AS cut_edges
            FROM edges e
            JOIN assign pa ON e.src = pa.vertex
            JOIN assign pb ON e.dst = pb.vertex
            """,
            edges=edges,
            assign=run.assignment,
        )

    def test_edge_cut_quality_matches_pandas(self, spark, graph):
        edges, n = graph
        run = run_partitioner(RandomVertexPartitioner(), edges, 4, n_vertices=n)
        q = quality.edge_cut_quality(
            to_spark(spark, edges), assignment_to_spark(spark, run), 4
        )
        part = run.assignment.set_index("vertex")["part"]
        cut = (part[edges["src"]].to_numpy() != part[edges["dst"]].to_numpy()).sum()
        assert q.cut_edges == cut
        assert np.isclose(q.edge_cut_ratio, cut / len(edges))
        vpp = run.assignment.groupby("part").size().reindex(range(4), fill_value=0)
        assert q.vertices_per_part == vpp.tolist()
        assert np.isclose(q.vertex_balance, vpp.max() / vpp.mean())

    def test_train_vertex_balance(self, spark, graph):
        edges, n = graph
        run = run_partitioner(RandomVertexPartitioner(), edges, 4, n_vertices=n)
        split = split_to_spark(spark, n, seed=7)
        q = quality.edge_cut_quality(
            to_spark(spark, edges), assignment_to_spark(spark, run), 4, split=split
        )
        assert q.train_vertex_balance is not None
        assert q.train_vertex_balance >= 1.0

    def test_single_partition_has_zero_cut(self, spark):
        edges = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3]})
        a = pd.DataFrame({"vertex": [0, 1, 2, 3], "part": [0, 0, 0, 0]})
        run_like = type("R", (), {"cut_type": "edge-cut", "assignment": a})()
        q = quality.edge_cut_quality(
            to_spark(spark, edges), assignment_to_spark(spark, run_like), 1
        )
        assert q.edge_cut_ratio == 0.0
        assert q.cut_edges == 0
