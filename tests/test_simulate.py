"""Tests for the cost model, DistGNN/DistDGL simulators and amortization."""
import pandas as pd
import pytest

from repro.graphs.datasets import generate, n_vertices_of, split_vertices
from repro.graphs.generators import symmetrized, to_spark, undirected_view
from repro.gnn.sampling import FANOUTS, EpochSamplingStats, plan_batches, sample_epoch
from repro.partitioning.base import run_partitioner
from repro.partitioning.edge.hep import hep100
from repro.partitioning.edge.random_ep import RandomEdgePartitioner
from repro.partitioning.registry import make_vertex_partitioner
from repro.simulate import amortization, distdgl, distgnn
from repro.simulate.costmodel import (
    PYTHON_PENALTY,
    ClusterModel,
    normalized_partition_seconds,
)

CLUSTER = ClusterModel()
SCALE = 1e-4


@pytest.fixture(scope="module")
def eu_runs():
    edges = undirected_view(generate("EU", scale=SCALE, seed=0))
    n = n_vertices_of(edges)
    rnd = run_partitioner(RandomEdgePartitioner(), edges, 8, n_vertices=n)
    hep = run_partitioner(hep100(), edges, 8, n_vertices=n)
    return edges, n, rnd, hep


class TestPartitionStats:
    def test_totals_consistent(self, eu_runs):
        edges, n, rnd, _ = eu_runs
        st = distgnn.partition_stats(rnd.assignment, 8)
        assert st.n_edges == len(edges)
        assert st.edges.sum() == len(edges)
        assert st.n_vertices <= n
        # masters partition the vertex set: replicas = covered - |V|
        assert st.replicas.sum() == st.vertices.sum() - st.n_vertices

    def test_rf_matches_definition(self, eu_runs):
        _, _, rnd, _ = eu_runs
        st = distgnn.partition_stats(rnd.assignment, 8)
        assert st.replication_factor == pytest.approx(
            st.vertices.sum() / st.n_vertices
        )

    def test_hep_has_lower_rf(self, eu_runs):
        _, _, rnd, hep = eu_runs
        assert (
            distgnn.partition_stats(hep.assignment, 8).replication_factor
            < distgnn.partition_stats(rnd.assignment, 8).replication_factor
        )


class TestDistGNNEpochMetrics:
    def cfg(self, **kw):
        base = dict(feature=64, hidden=64, layers=2)
        base.update(kw)
        return distgnn.GNNConfig(**base)

    def test_better_partitioning_is_faster_and_leaner(self, eu_runs):
        _, _, rnd, hep = eu_runs
        st_r = distgnn.partition_stats(rnd.assignment, 8)
        st_h = distgnn.partition_stats(hep.assignment, 8)
        m_r = distgnn.epoch_metrics(st_r, self.cfg(), CLUSTER, scale=SCALE)
        m_h = distgnn.epoch_metrics(st_h, self.cfg(), CLUSTER, scale=SCALE)
        assert m_h.epoch_seconds < m_r.epoch_seconds
        assert m_h.network_bytes < m_r.network_bytes
        assert m_h.mem_per_machine.max() < m_r.mem_per_machine.max()

    def test_network_proportional_to_replicas(self, eu_runs):
        # The paper's Figure 3 correlation is structural in the simulator.
        _, _, rnd, _ = eu_runs
        st = distgnn.partition_stats(rnd.assignment, 8)
        m1 = distgnn.epoch_metrics(st, self.cfg(hidden=16), CLUSTER, scale=SCALE)
        m2 = distgnn.epoch_metrics(st, self.cfg(hidden=32), CLUSTER, scale=SCALE)
        # doubling hidden dim ~ doubles synced bytes (2 of 2 layers hidden-sized)
        assert m2.network_bytes == pytest.approx(2 * m1.network_bytes, rel=0.01)

    def test_memory_grows_with_feature_and_layers(self, eu_runs):
        _, _, rnd, _ = eu_runs
        st = distgnn.partition_stats(rnd.assignment, 8)
        base = distgnn.epoch_metrics(st, self.cfg(), CLUSTER, scale=SCALE)
        big_f = distgnn.epoch_metrics(st, self.cfg(feature=512), CLUSTER, scale=SCALE)
        more_l = distgnn.epoch_metrics(st, self.cfg(layers=4), CLUSTER, scale=SCALE)
        assert big_f.mem_per_machine.max() > base.mem_per_machine.max()
        assert more_l.mem_per_machine.max() > base.mem_per_machine.max()

    def test_mem_balance_tracks_vertex_balance(self, eu_runs):
        # Paper Figure 5: vertex imbalance == memory imbalance (at large
        # feature sizes where vertex state dominates the edge structure).
        _, _, _, hep = eu_runs
        st = distgnn.partition_stats(hep.assignment, 8)
        m = distgnn.epoch_metrics(st, self.cfg(feature=512), CLUSTER, scale=SCALE)
        assert m.mem_balance == pytest.approx(st.vertex_balance, rel=0.1)

    def test_oom_flag_respects_budget(self, eu_runs):
        _, _, rnd, _ = eu_runs
        st = distgnn.partition_stats(rnd.assignment, 8)
        tight = ClusterModel(machine_mem_bytes=1.0)  # impossible budget
        m = distgnn.epoch_metrics(st, self.cfg(), tight, scale=SCALE)
        assert m.oom
        roomy = ClusterModel(machine_mem_bytes=1e18)
        assert not distgnn.epoch_metrics(st, self.cfg(), roomy, scale=SCALE).oom

    def test_comm_dominates_for_random(self, eu_runs):
        # DistGNN is communication-bound under poor partitioning — the
        # precondition for the paper's large speedups.
        _, _, rnd, _ = eu_runs
        st = distgnn.partition_stats(rnd.assignment, 8)
        m = distgnn.epoch_metrics(st, self.cfg(feature=512, hidden=64), CLUSTER, scale=SCALE)
        assert m.comm_seconds > m.compute_seconds


class TestDistDGLPhases:
    @pytest.fixture(scope="class")
    def sampled(self, spark):
        edges = undirected_view(generate("EN", scale=SCALE, seed=0))
        n = n_vertices_of(edges)
        split = split_vertices(n, seed=7)
        train = split.loc[split["role"] == "train", "vertex"].to_numpy()
        run = run_partitioner(
            make_vertex_partitioner("Metis"), edges, 4, n_vertices=n
        )
        owner = run.assignment.set_index("vertex")["part"].sort_index().to_numpy()
        seeds = plan_batches(train, owner, 4, 64, seed=0)
        return sample_epoch(
            spark, to_spark(spark, symmetrized(edges)), seeds, owner,
            FANOUTS[3], seed=0, global_batch=64,
        )

    def cfg(self, **kw):
        base = dict(feature=64, hidden=64, layers=3)
        base.update(kw)
        return distgnn.GNNConfig(**base)

    def test_phases_positive_and_sum(self, sampled):
        ph = distdgl.phase_times(sampled, self.cfg(), CLUSTER, FANOUTS[3])
        for v in (ph.sampling, ph.feature_fetch, ph.forward, ph.backward, ph.update):
            assert v > 0
        assert ph.epoch_seconds == pytest.approx(
            ph.sampling + ph.feature_fetch + ph.forward + ph.backward + ph.update
        )

    def test_fetch_grows_with_feature_sampling_constant(self, sampled):
        # Paper Fig 19a: feature size moves only the fetch phase.
        small = distdgl.phase_times(sampled, self.cfg(feature=16), CLUSTER, FANOUTS[3])
        big = distdgl.phase_times(sampled, self.cfg(feature=512), CLUSTER, FANOUTS[3])
        assert big.feature_fetch > 5 * small.feature_fetch
        assert big.sampling == pytest.approx(small.sampling)

    def test_fetch_dominates_sampling_at_512(self, sampled):
        # Paper: crossover between f=64 and f=512 on skewed graphs.
        ph = distdgl.phase_times(sampled, self.cfg(feature=512), CLUSTER, FANOUTS[3])
        assert ph.feature_fetch > ph.sampling
        ph16 = distdgl.phase_times(sampled, self.cfg(feature=16), CLUSTER, FANOUTS[3])
        assert ph16.sampling > ph16.feature_fetch

    def test_hidden_dim_moves_only_compute(self, sampled):
        small = distdgl.phase_times(sampled, self.cfg(hidden=16), CLUSTER, FANOUTS[3])
        big = distdgl.phase_times(sampled, self.cfg(hidden=512), CLUSTER, FANOUTS[3])
        assert big.forward > small.forward
        assert big.sampling == pytest.approx(small.sampling)
        assert big.feature_fetch == pytest.approx(small.feature_fetch)

    def test_network_bytes_formula(self, sampled):
        nb = distdgl.network_bytes(sampled, self.cfg(feature=32))
        assert nb == sampled.epoch_total("remote_inputs") * 32 * 4


class TestPhaseTimesByHand:
    """Phase times of a hand-built epoch: two workers, two steps, L=2.

    Worker 0 samples no edge at step 1, so it does no forward work there
    although its dense term would be 384 flops, more than worker 1's 232.
    Every cluster constant is 1, so seconds equal the counted events.
    """

    def test_exact_phases(self):
        per_step = pd.DataFrame(
            {
                "worker": [0, 1, 0, 1],
                "step": [0, 0, 1, 1],
                "input_vertices": [5, 3, 2, 1],
                "remote_inputs": [2, 1, 0, 1],
                "remote_accesses": [3, 1, 0, 2],
                "hop0_edges": [2, 2, 0, 1],
                "hop1_edges": [3, 0, 0, 2],
                "sampled_edges": [5, 2, 0, 3],
            }
        )
        # phase_times reads only per_step.
        stats = EpochSamplingStats(
            k=2, n_layers=2, global_batch=4, per_step=per_step, sampled=None
        )
        cluster = ClusterModel(
            flops_per_sec=1.0, net_bandwidth=1.0, remote_access_cost=1.0,
            samp_edge_cost=1.0, local_read_cost=1.0, update_cost=1.0,
        )
        cfg = distgnn.GNNConfig(feature=8, hidden=4, layers=2)
        ph = distdgl.phase_times(stats, cfg, cluster, (25, 20))
        # sampling = edges + remote accesses: max(8, 3) + max(0, 5).
        assert ph.sampling == 13.0
        # fetch = 32 bytes per remote input + 1 per local input:
        # max(67, 34) + max(2, 32).
        assert ph.feature_fetch == 99.0
        # sage flops per layer = 4 n d_in d_out + 2 e d_in with
        # n = min(inputs, e + 4); layer 0 takes hop 1 (8 -> 4), layer 1
        # hop 0 (4 -> 4). Step 0: max(688 + 336, 384 + 208); step 1:
        # max(0, 160 + 72).
        assert ph.forward == 1256.0
        # backward = 2 forward + per-step all-reduce of 96 scalars x 4 bytes.
        assert ph.backward == 2 * 1256.0 + 2 * 384.0
        assert ph.update == 2.0


class TestAmortization:
    def test_basic_division(self):
        assert amortization.epochs_to_amortize(10.0, 3.0, 1.0) == pytest.approx(5.0)

    def test_slowdown_returns_none(self):
        assert amortization.epochs_to_amortize(10.0, 1.0, 2.0) is None
        assert amortization.epochs_to_amortize(10.0, 1.0, 1.0) is None

    def test_penalty_normalization(self):
        assert normalized_partition_seconds("HDRF", 40.0) == pytest.approx(
            40.0 / PYTHON_PENALTY["HDRF"]
        )
        assert normalized_partition_seconds("Random", 40.0) == pytest.approx(40.0)
        assert set(PYTHON_PENALTY) >= {
            "Random", "DBH", "HDRF", "2PS-L", "HEP10", "HEP100",
            "LDG", "Spinner", "Metis", "ByteGNN", "KaHIP",
        }

    def test_partition_time_model_adds_io_floor(self):
        from repro.simulate.costmodel import IO_COST_PER_EDGE, partition_time_model

        t = partition_time_model("HDRF", 40.0, 1_000_000)
        assert t == pytest.approx(
            1_000_000 * IO_COST_PER_EDGE + 40.0 / PYTHON_PENALTY["HDRF"]
        )

    def test_measured_variant_applies_penalty(self):
        # The tables amortize the modelled time; with no edges to read it is
        # the measured time divided by the interpreter penalty.
        from repro.simulate.costmodel import partition_time_model

        e = amortization.epochs_to_amortize(
            partition_time_model("HDRF", 40.0, 0), 3.0, 1.0
        )
        assert e == pytest.approx(40.0 / PYTHON_PENALTY["HDRF"] / 2.0)
