"""Benchmark backing Table 5 (DistDGL track).

Measures one Table 5 cell end to end: partition the EN stand-in with the
METIS-like partitioner, plan the epoch's mini-batches, run one sampling
epoch (3-layer GraphSage fanouts; a driver-side CSR sampler over the
collected Spark edge table), and evaluate the phase-time model. Regenerate
the full table with ``python jobs/table5_distdgl_amortization.py``.
"""
import pytest

from repro.exp.harness import load_bundle
from repro.graphs.generators import symmetrized, to_spark
from repro.gnn.sampling import FANOUTS, plan_batches, sample_epoch
from repro.partitioning.base import run_partitioner
from repro.partitioning.vertex.metis_like import MetisLikePartitioner
from repro.simulate.costmodel import ClusterModel
from repro.simulate.distdgl import phase_times
from repro.simulate.distgnn import GNNConfig

SCALE = 1e-3
K = 8
GBS = 64


@pytest.fixture(scope="module")
def prepared(spark):
    b = load_bundle("EN", scale=SCALE, seed=0)
    run = run_partitioner(
        MetisLikePartitioner(), b.edges, K, n_vertices=b.n_vertices, seed=0
    )
    owner = run.assignment.set_index("vertex")["part"].sort_index().to_numpy()
    sym = to_spark(spark, symmetrized(b.edges))
    sym.cache().count()
    return b, owner, sym


def table5_cell(spark, b, owner, sym):
    seeds = plan_batches(b.train, owner, K, GBS, seed=0)
    stats = sample_epoch(spark, sym, seeds, owner, FANOUTS[3], seed=0, global_batch=GBS)
    ph = phase_times(stats, GNNConfig(64, 64, 3), ClusterModel(), FANOUTS[3])
    return ph.epoch_seconds


def test_bench_table5_cell(benchmark, spark, prepared):
    b, owner, sym = prepared
    epoch_s = benchmark.pedantic(
        table5_cell, args=(spark, b, owner, sym), rounds=3, iterations=1
    )
    assert epoch_s > 0
