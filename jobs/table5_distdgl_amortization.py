"""Table 5 + Figure 16 series: the DistDGL track at 8 workers.

Runs the DistDGL suite (GraphSage, global batch 64, full feature/hidden/
layers grid) over all five graphs and six vertex partitioners on k=8
workers — every row backed by a really-executed sampling epoch —
then emits:

* ``table5`` — average epochs until partitioning amortizes (paper Table 5);
* ``fig16_speedups`` — mean/min/max speedup vs Random per (graph, partitioner);
* ``phase_shares`` — sampling / fetch / forward shares at f=512, h=64, L=3
  (paper Figure 19's crossover);
* ``suite`` — every raw row.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pandas as pd

from _common import make_session, save_and_print
from repro.exp import tables
from repro.exp.harness import run_distdgl_suite

VERTEX_ROSTER = ["ByteGNN", "KaHIP", "LDG", "Spinner", "Metis"]


def run(spark, *, scale: float = 1e-3, seed: int = 0, k: int = 8) -> dict[str, pd.DataFrame]:
    suite = run_distdgl_suite(spark, ks=(k,), scale=scale, seed=seed)
    t5 = tables.amortization_table(suite, partitioners=VERTEX_ROSTER)
    speedups = (
        tables.mean_speedups(suite, by=("graph", "partitioner"))
        .round(3)
    )
    rep = suite[(suite["feature"] == 512) & (suite["hidden"] == 64) & (suite["layers"] == 3)]
    phases = rep[
        ["graph", "partitioner", "t_sampling", "t_fetch", "t_forward", "t_backward",
         "epoch_seconds", "edge_cut", "remote_inputs", "input_vertex_balance"]
    ].reset_index(drop=True)
    return {
        "suite": suite,
        "table5": t5.map(lambda v: float("nan") if v is None else v),
        "fig16_speedups": speedups,
        "phase_shares": phases,
    }


if __name__ == "__main__":
    spark = make_session("table5_distdgl")
    out = run(spark)
    print("\n=== Table 5 (epochs to amortize; blank = no amortization) ===")
    print(out["table5"].round(2).to_string())
    save_and_print("table5_distdgl", out, print_keys=("fig16_speedups",))
    spark.stop()
