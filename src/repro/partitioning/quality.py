"""Edge-cut partitioning-quality metrics (paper Section 2.1) in Spark SQL.

Edge-cut ratio ``λ = |E_cut| / |E|``, vertex balance over partition sizes,
and training-vertex balance (DistDGL section), computed with DataFrame
aggregations (Catalyst); the tests oracle-check the cut plan against the
same SQL on DuckDB.

The vertex-cut metrics (replication factor, edge and vertex balance) have
one implementation, :func:`repro.simulate.distgnn.partition_stats`.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


@dataclass(frozen=True)
class EdgeCutQuality:
    k: int
    n_vertices: int
    n_edges: int
    edge_cut_ratio: float
    vertex_balance: float
    train_vertex_balance: float | None
    vertices_per_part: list[int]
    cut_edges: int


def edge_cut_quality(
    edges: DataFrame,
    assign: DataFrame,
    k: int,
    *,
    split: DataFrame | None = None,
) -> EdgeCutQuality:
    """Quality of a vertex-partitioning run.

    ``edges`` is the undirected view; ``assign`` has (vertex, part);
    ``split`` optionally has (vertex, role) to compute the training-vertex
    balance the paper measures for DistDGL.
    """
    agg = cut_edges_df(edges, assign).collect()[0]
    n_edges, cut = int(agg["n_edges"]), int(agg["cut_edges"] or 0)

    vpp_rows = assign.groupBy("part").agg(F.count("*").alias("n")).collect()
    vpp = {int(r["part"]): int(r["n"]) for r in vpp_rows}
    vertices_per_part = [vpp.get(p, 0) for p in range(k)]
    n_vertices = sum(vertices_per_part)
    mean_v = n_vertices / k

    train_balance = None
    if split is not None:
        t_rows = (
            assign.join(split.where(F.col("role") == "train"), "vertex")
            .groupBy("part")
            .agg(F.count("*").alias("n"))
            .collect()
        )
        tpp = {int(r["part"]): int(r["n"]) for r in t_rows}
        train_per_part = [tpp.get(p, 0) for p in range(k)]
        mean_t = sum(train_per_part) / k
        train_balance = max(train_per_part) / mean_t if mean_t else float("nan")

    return EdgeCutQuality(
        k=k,
        n_vertices=n_vertices,
        n_edges=n_edges,
        edge_cut_ratio=cut / n_edges if n_edges else float("nan"),
        vertex_balance=max(vertices_per_part) / mean_v if mean_v else float("nan"),
        train_vertex_balance=train_balance,
        vertices_per_part=vertices_per_part,
        cut_edges=cut,
    )


def cut_edges_df(edges: DataFrame, assign: DataFrame) -> DataFrame:
    """One-row DataFrame (n_edges, cut_edges): the plan ``edge_cut_quality`` runs."""
    a_src = assign.withColumnRenamed("vertex", "src").withColumnRenamed("part", "part_src")
    a_dst = assign.withColumnRenamed("vertex", "dst").withColumnRenamed("part", "part_dst")
    return (
        edges.join(a_src, "src")
        .join(a_dst, "dst")
        .agg(
            F.count("*").alias("n_edges"),
            F.sum((F.col("part_src") != F.col("part_dst")).cast("long")).alias("cut_edges"),
        )
    )
