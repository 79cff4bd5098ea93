"""Figures 2/4/5/6 series: edge-partitioner quality and partitioning time.

For every (graph, edge partitioner, k in {4, 32}): replication factor
(Fig 2), vertex balance (Fig 4), edge balance, memory-utilization balance
at a representative config (Fig 5), and measured + normalized partitioning
time (Fig 6). The RF/balance numbers come from the really-executed
partition assignments via the same stats the DistGNN simulator consumes.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pandas as pd

from _common import save_and_print
from repro.exp.harness import run_distgnn_suite
from repro.simulate.distgnn import GNNConfig

COLUMNS = [
    "graph", "partitioner", "k", "replication_factor", "vertex_balance",
    "edge_balance", "mem_balance", "partition_seconds", "partition_seconds_norm",
]


def run(spark=None, *, scale: float = 1e-3, seed: int = 0, ks=(4, 32)) -> dict[str, pd.DataFrame]:
    suite = run_distgnn_suite(
        ks=ks, configs=[GNNConfig(feature=512, hidden=64, layers=3)], scale=scale, seed=seed
    )
    df = suite.rename(columns={"rf": "replication_factor"})[COLUMNS]
    rf = df.pivot_table(
        index=["graph", "partitioner"], columns="k", values="replication_factor"
    ).round(2)
    vb = df.pivot_table(
        index=["graph", "partitioner"], columns="k", values="vertex_balance"
    ).round(2)
    return {"quality": df, "fig2_rf": rf.reset_index(), "fig4_vb": vb.reset_index()}


if __name__ == "__main__":
    save_and_print(
        "fig2_replication_factors", run(), print_keys=("fig2_rf", "fig4_vb")
    )
