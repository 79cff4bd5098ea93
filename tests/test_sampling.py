"""Tests for the DistDGL-style mini-batch sampler (CSR sampler + numpy stats)."""
from collections import defaultdict

import numpy as np
import pandas as pd
import pytest

from repro.graphs.datasets import generate, n_vertices_of, split_vertices
from repro.graphs.generators import symmetrized, to_spark, undirected_view
from repro.gnn.sampling import (
    FANOUTS,
    EpochSamplingStats,
    plan_batches,
    sample_epoch,
)
from repro.partitioning.base import run_partitioner
from repro.partitioning.vertex.metis_like import MetisLikePartitioner
from repro.partitioning.vertex.random_vp import RandomVertexPartitioner


_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _rank(seed: int, *fields: int) -> int:
    h = _splitmix64(seed)
    for x in fields:
        h = _splitmix64(h ^ x)
    return h >> 32


def reference_sample(sym: pd.DataFrame, seeds: pd.DataFrame, fanouts, seed: int):
    """Pure-Python oracle for ``sample_epoch``'s sampled-edge table.

    Per (worker, step) the hop-l frontier is the seeds plus every dst sampled
    at hops < l; each frontier vertex keeps the ``fanout`` neighbours with
    the smallest (rank, dst), rank being the top 32 bits of the splitmix64
    fold over (seed, hop, worker, step, src, dst).
    """
    adj = defaultdict(list)
    for s, d in zip(sym["src"], sym["dst"]):
        adj[int(s)].append(int(d))
    rows = []
    for (w, t), grp in seeds.groupby(["worker", "step"]):
        w, t = int(w), int(t)
        frontier = set(int(v) for v in grp["vertex"])
        for hop, fan in enumerate(fanouts):
            reached = set()
            for v in sorted(frontier):
                nbrs = sorted(adj[v], key=lambda d: (_rank(seed, hop, w, t, v, d), d))
                for d in nbrs[:fan]:
                    rows.append((w, t, v, d, hop))
                    reached.add(d)
            frontier |= reached
    return pd.DataFrame(rows, columns=["worker", "step", "src", "dst", "layer"])


def reference_remote_accesses(seeds, sampled, owner, n_layers) -> dict:
    """(worker, step) -> remote sampling accesses: each remote input counts
    the hops whose frontier it is in."""
    first = {}
    for w, t, v in seeds[["worker", "step", "vertex"]].itertuples(index=False):
        first[(w, t, v)] = 0
    reached = sampled[["worker", "step", "dst", "layer"]]
    for w, t, d, layer in reached.itertuples(index=False):
        first[(w, t, d)] = min(first.get((w, t, d), layer + 1), layer + 1)
    out = defaultdict(int)
    for (w, t, v), f in first.items():
        if owner[v] != w:
            out[(w, t)] += max(0, n_layers - f)
    return dict(out)


def _by_row(sampled: pd.DataFrame) -> pd.DataFrame:
    cols = ["worker", "step", "layer", "src", "dst"]
    return sampled[cols].astype("int64").sort_values(cols).reset_index(drop=True)


def unreached_sources(seeds: pd.DataFrame, sampled: pd.DataFrame) -> pd.DataFrame:
    """Hop-l rows whose src is neither a seed nor a dst sampled at a hop < l."""
    first = pd.concat(
        [
            seeds[["worker", "step", "vertex"]].assign(first=-1),
            sampled[["worker", "step", "dst", "layer"]].rename(
                columns={"dst": "vertex", "layer": "first"}
            ),
        ],
        ignore_index=True,
    ).groupby(["worker", "step", "vertex"], as_index=False)["first"].min()
    src = sampled.rename(columns={"src": "vertex"}).merge(
        first, on=["worker", "step", "vertex"], how="left"
    )
    return src[~(src["first"] < src["layer"])]


@pytest.fixture(scope="module")
def setup(spark):
    edges = undirected_view(generate("EN", scale=1e-4, seed=0))
    n = n_vertices_of(edges)
    split = split_vertices(n, seed=7)
    train = split.loc[split["role"] == "train", "vertex"].to_numpy()
    run = run_partitioner(MetisLikePartitioner(), edges, 4, n_vertices=n)
    owner = run.assignment.set_index("vertex")["part"].sort_index().to_numpy()
    sym = to_spark(spark, symmetrized(edges))
    return edges, n, train, owner, sym


class TestPlanBatches:
    def test_each_worker_contributes_each_step(self, setup):
        _, _, train, owner, _ = setup
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        counts = seeds.groupby(["worker", "step"]).size()
        assert set(seeds["worker"].unique()) == set(range(4))
        assert counts.max() <= 16  # global_batch / k

    def test_steps_cover_training_set(self, setup):
        _, _, train, owner, _ = setup
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        n_steps = seeds["step"].max() + 1
        assert n_steps == int(np.ceil(len(train) / 64))

    def test_seeds_are_local_to_their_worker(self, setup):
        _, _, train, owner, _ = setup
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        assert (owner[seeds["vertex"]] == seeds["worker"]).all()

    def test_deterministic(self, setup):
        _, _, train, owner, _ = setup
        a = plan_batches(train, owner, 4, 64, seed=3)
        b = plan_batches(train, owner, 4, 64, seed=3)
        pd.testing.assert_frame_equal(a, b)

    def test_only_train_vertices_used(self, setup):
        _, _, train, owner, _ = setup
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        assert set(seeds["vertex"]).issubset(set(train))


class TestSampleEpoch:
    @pytest.fixture(scope="class")
    def stats(self, spark, setup) -> EpochSamplingStats:
        _, _, train, owner, sym = setup
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        return sample_epoch(
            spark, sym, seeds, owner, FANOUTS[3], seed=0, global_batch=64
        )

    def test_fanout_cap_respected(self, stats):
        per_src = stats.sampled.groupby(["worker", "step", "layer", "src"]).size()
        for layer, fan in enumerate(FANOUTS[3]):
            layer_counts = per_src.xs(layer, level="layer")
            assert layer_counts.max() <= fan

    def test_sampled_edges_exist_in_graph(self, setup, stats):
        edges, _, _, _, _ = setup
        sym_pairs = set(
            map(tuple, symmetrized(edges)[["src", "dst"]].to_numpy())
        )
        got = set(map(tuple, stats.sampled[["src", "dst"]].to_numpy()))
        assert got.issubset(sym_pairs)

    def test_remote_inputs_bounded_by_inputs(self, stats):
        assert (stats.per_step["remote_inputs"] <= stats.per_step["input_vertices"]).all()

    def test_remote_accesses_bounded(self, stats):
        # Each remote input vertex can be accessed at most n_layers times.
        assert (
            stats.per_step["remote_accesses"]
            <= stats.n_layers * stats.per_step["remote_inputs"]
        ).all()

    def test_input_vertex_balance_at_least_one(self, stats):
        assert stats.input_vertex_balance() >= 1.0

    def test_per_layer_counts_sum_to_total(self, stats):
        hops = [stats.hop_edges(h) for h in range(stats.n_layers)]
        np.testing.assert_array_equal(sum(hops), stats.per_step["sampled_edges"])
        assert sum(h.sum() for h in hops) == len(stats.sampled)
        steps = pd.MultiIndex.from_frame(stats.per_step[["worker", "step"]])
        per_layer = stats.sampled.groupby(["layer", "worker", "step"]).size()
        for h in range(stats.n_layers):
            want = per_layer.xs(h).reindex(steps, fill_value=0)
            np.testing.assert_array_equal(stats.hop_edges(h), want)


class TestSamplingSemantics:
    def test_single_partition_has_no_remote(self, spark, setup):
        edges, n, train, _, sym = setup
        owner = np.zeros(n, dtype=np.int64)
        seeds = plan_batches(train, owner, 1, 64, seed=0)
        st = sample_epoch(spark, sym, seeds, owner, FANOUTS[2], seed=0)
        assert st.epoch_total("remote_inputs") == 0
        assert st.epoch_total("remote_accesses") == 0

    def test_worse_partitioning_means_more_remote(self, spark, setup):
        edges, n, train, owner_metis, sym = setup
        rnd = run_partitioner(RandomVertexPartitioner(), edges, 4, n_vertices=n)
        owner_rnd = rnd.assignment.set_index("vertex")["part"].sort_index().to_numpy()
        seeds_m = plan_batches(train, owner_metis, 4, 64, seed=0)
        seeds_r = plan_batches(train, owner_rnd, 4, 64, seed=0)
        st_m = sample_epoch(spark, sym, seeds_m, owner_metis, FANOUTS[2], seed=0)
        st_r = sample_epoch(spark, sym, seeds_r, owner_rnd, FANOUTS[2], seed=0)
        frac_m = st_m.epoch_total("remote_inputs") / st_m.epoch_total("input_vertices")
        frac_r = st_r.epoch_total("remote_inputs") / st_r.epoch_total("input_vertices")
        assert frac_m < frac_r

    def test_more_layers_sample_more(self, spark, setup):
        _, _, train, owner, sym = setup
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        st2 = sample_epoch(spark, sym, seeds, owner, FANOUTS[2], seed=0)
        st4 = sample_epoch(spark, sym, seeds, owner, FANOUTS[4], seed=0)
        assert st4.epoch_total("sampled_edges") > st2.epoch_total("sampled_edges")
        assert st4.epoch_total("input_vertices") > st2.epoch_total("input_vertices")

    def test_deterministic_in_seed(self, spark, setup):
        _, _, train, owner, sym = setup
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        a = sample_epoch(spark, sym, seeds, owner, FANOUTS[2], seed=5)

        def same_as_a(b):
            pd.testing.assert_frame_equal(
                a.per_step.sort_values(["worker", "step"]).reset_index(drop=True),
                b.per_step.sort_values(["worker", "step"]).reset_index(drop=True),
            )
            pd.testing.assert_frame_equal(_by_row(a.sampled), _by_row(b.sampled))

        same_as_a(sample_epoch(spark, sym, seeds, owner, FANOUTS[2], seed=5))
        key = "spark.sql.shuffle.partitions"
        before = spark.conf.get(key)
        try:
            for parts in ("1", "16", "64"):
                spark.conf.set(key, parts)
                same_as_a(sample_epoch(spark, sym, seeds, owner, FANOUTS[2], seed=5))
        finally:
            spark.conf.set(key, before)
        same_as_a(
            sample_epoch(spark, sym.repartition(7), seeds, owner, FANOUTS[2], seed=5)
        )

    def test_frontier_closed(self, spark):
        # At 1e-3 the fanout cap binds at every hop on EN, and the hop
        # tables are large enough for a sampler that draws a hop twice to
        # leave sources outside their frontier.
        edges = undirected_view(generate("EN", scale=1e-3, seed=0))
        n = n_vertices_of(edges)
        split = split_vertices(n, seed=7)
        train = split.loc[split["role"] == "train", "vertex"].to_numpy()
        run = run_partitioner(RandomVertexPartitioner(), edges, 8, n_vertices=n)
        owner = run.assignment.set_index("vertex")["part"].sort_index().to_numpy()
        seeds = plan_batches(train, owner, 8, 64, seed=0)
        sym = to_spark(spark, symmetrized(edges))
        st = sample_epoch(spark, sym, seeds, owner, FANOUTS[3], seed=0, global_batch=64)
        assert unreached_sources(seeds, st.sampled).empty

    def test_larger_batch_fewer_remote_per_seed(self, spark, setup):
        # Paper Sec 5.4: bigger batches overlap more, so remote vertices
        # *per seed* drop.
        _, _, train, owner, sym = setup
        small = plan_batches(train, owner, 4, 32, seed=0)
        large = plan_batches(train, owner, 4, 256, seed=0)
        st_s = sample_epoch(spark, sym, small, owner, FANOUTS[3], seed=0)
        st_l = sample_epoch(spark, sym, large, owner, FANOUTS[3], seed=0)
        per_seed_s = st_s.epoch_total("remote_inputs") / len(small)
        per_seed_l = st_l.epoch_total("remote_inputs") / len(large)
        assert per_seed_l < per_seed_s


class TestAgainstReference:
    """A hand-built graph whose hub has more neighbours than the fanout."""

    # Hub 0 with neighbours 1..9, a path 9-10-11-12 and a triangle 3-4-5.
    EDGES = pd.DataFrame(
        {
            "src": [0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 10, 11, 3, 4],
            "dst": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 4, 5],
        }
    )
    OWNER = np.array([0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0])
    SEEDS = pd.DataFrame(
        {
            "worker": [0, 0, 0, 1, 1, 1, 1],
            "step": [0, 0, 1, 0, 0, 1, 1],
            "vertex": [0, 10, 4, 2, 3, 0, 12],
        }
    )
    FANOUTS = (3, 2, 2)

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_sampled_rows_match_oracle(self, spark, seed):
        sym = symmetrized(self.EDGES)
        st = sample_epoch(
            spark, to_spark(spark, sym), self.SEEDS, self.OWNER, self.FANOUTS, seed=seed
        )
        want = reference_sample(sym, self.SEEDS, self.FANOUTS, seed)
        # The hub is capped at every hop that expands it.
        hub = want[want["src"] == 0].groupby(["worker", "step", "layer"]).size()
        assert len(hub) and (
            hub.to_numpy() == np.asarray(self.FANOUTS)[hub.index.get_level_values("layer")]
        ).all()
        pd.testing.assert_frame_equal(_by_row(st.sampled), _by_row(want))
        got = st.per_step.set_index(["worker", "step"])["remote_accesses"]
        ref = reference_remote_accesses(self.SEEDS, want, self.OWNER, len(self.FANOUTS))
        assert {k: int(v) for k, v in got.items()} == {
            k: ref.get(k, 0) for k in got.index
        }
