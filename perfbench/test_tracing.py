"""Unit tests for the benchmark's counters, on hand-built inputs.

Run with ``python -m pytest perfbench -q``. A bare ``pytest`` does not
collect this directory (``testpaths`` in pyproject.toml), and no test here
needs Spark or pytest-benchmark.
"""
import sys
import time
from pathlib import Path

import pandas as pd
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def frame(cols, rows):
    return pd.DataFrame(rows, columns=cols)


SEEDS = frame(["worker", "step", "vertex"], [(0, 0, 1), (1, 0, 5)])
SAMPLED_COLS = ["worker", "step", "src", "dst", "layer"]


def test_rows_per_hop():
    s = frame(SAMPLED_COLS, [(0, 0, 1, 2, 0), (0, 0, 1, 3, 0), (0, 0, 2, 4, 1)])
    assert tracing.rows_per_hop(s) == {0: 2, 1: 1}


def test_closed_sample_has_no_orphans():
    s = frame(SAMPLED_COLS, [
        (0, 0, 1, 2, 0), (0, 0, 2, 3, 1), (0, 0, 1, 4, 1), (0, 0, 3, 7, 2),
        (1, 0, 5, 6, 0), (1, 0, 6, 7, 1),
    ])
    assert tracing.orphan_sources(SEEDS, s) == 0


def test_orphans_count_sources_outside_the_frontier():
    s = frame(SAMPLED_COLS, [
        (0, 0, 1, 2, 0),
        (0, 0, 9, 3, 1),  # 9 was never reached
        (0, 0, 9, 4, 1),  # same (worker, step, src, hop): counted once
        (0, 0, 5, 6, 0),  # 5 is a seed of worker 1, not of worker 0
        (0, 0, 3, 8, 1),  # 3 is first reached at hop 1, too late for hop 1
        (1, 0, 5, 2, 0),
        (1, 0, 2, 3, 1),  # 2 reached by worker 1 at hop 0: fine
    ])
    assert tracing.orphan_sources(SEEDS, s) == 3


def test_fanout_violations_per_hop_cap():
    s = frame(SAMPLED_COLS, [
        (0, 0, 1, 2, 0), (0, 0, 1, 3, 0), (0, 0, 1, 4, 0),  # 3 > cap 2
        (0, 0, 2, 5, 1),  # 1 <= cap 1
        (0, 1, 1, 2, 0), (0, 1, 1, 3, 0),  # another step: 2 <= 2
        (1, 0, 2, 5, 1), (1, 0, 2, 6, 1),  # 2 > cap 1
    ])
    assert tracing.fanout_violations(s, (2, 1)) == 2


def test_missing_seeds_are_checked_against_hop0_sources():
    seeds = frame(["worker", "step", "vertex"], [(0, 0, 1), (0, 0, 2), (1, 0, 5), (1, 1, 7)])
    sources = [1, 2, 5]  # 7 has no neighbours
    ok = frame(SAMPLED_COLS, [(0, 0, 1, 3, 0), (0, 0, 2, 3, 0), (1, 0, 5, 6, 0), (1, 0, 6, 8, 1)])
    assert tracing.missing_seeds(seeds, ok, sources) == 0
    lost = frame(SAMPLED_COLS, [
        (0, 0, 1, 3, 0), (0, 0, 1, 4, 0),  # extra rows of 1 do not hide the loss of 2
        (0, 0, 2, 3, 1),  # 2 only at hop 1: not a hop-0 source
        (1, 1, 5, 6, 0),  # 5 under another step of its worker
    ])
    assert tracing.missing_seeds(seeds, lost, sources) == 2
    assert tracing.missing_seeds(seeds, lost, [1, 2, 5, 7]) == 3  # 7 now has neighbours


def test_repeat_keys():
    a = ("DI", 1e-4, 0, "Metis", 16)
    b = ("DI", 1e-4, 0, "Random", 16)
    assert tracing.repeats([]) == 0
    assert tracing.repeats([a, b]) == 0
    assert tracing.repeats([a, b, a, a, b]) == 3
    assert tracing.repeats([a, ("DI", 1e-4, 1, "Metis", 16)]) == 0  # seed is in the key


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("harness", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 4.0, 0),  # overlaps a: 1..4 covered once
        Span("c", 6.0, 7.0, 0),
        Span("grandchild", 6.0, 7.0, 3),  # covered by c already
        Span("d", 9.0, 12.0, 0),  # clipped to the parent's end
        Span("other", 0.0, 5.0, None),  # not a child
    ]
    assert tracing.self_seconds(spans, 0) == pytest.approx(10 - 3 - 1 - 1)
    assert tracing.self_seconds(spans, 3) == pytest.approx(0.0)
    assert tracing.self_seconds(spans, 1) == pytest.approx(2.0)


def test_failed_cells_match_wildcards():
    cells = [("DI", p, 16, b, k) for b in (16, 256) for k in ("sage", "gat") for p in ("Random", "Metis")]
    assert workloads.failed_cells(cells, []) == 0
    assert workloads.failed_cells(cells, [((None,) * 5, "raised")]) == 8
    assert workloads.failed_cells(cells, [((None, None, None, 16, "gat"), "raised")]) == 2
    two = [(("DI", "Metis", 16, None, None), "x"), (("DI", "Metis", 16, 16, None), "y")]
    assert workloads.failed_cells(cells, two) == 4


def test_table_check_reports_missing_rows_columns_and_values():
    table = pd.DataFrame({"DBH": [1.0, None]}, index=["DI", "OR"])
    bad = workloads.check_table(table, ("DI", "OR", "EN"), ("DBH", "HDRF"))
    assert sorted(cell[:2] for cell, _ in bad) == [
        ("DI", "HDRF"), ("EN", "DBH"), ("EN", "HDRF"), ("OR", "DBH"), ("OR", "HDRF"),
    ]


def test_overhead_excludes_the_wrapped_call():
    probe = tracing.Probe(scale=1e-4)
    slow = probe._wrap(lambda: time.sleep(0.05), "m", "slow", "x")
    slow()
    assert probe.overhead_s == 0.0  # untraced: no bookkeeping
    probe.tracing = True
    slow()
    assert 0.0 < probe.overhead_s < 0.01
    assert probe.spans[0].seconds >= 0.05


def test_probe_restores_the_functions_it_wraps():
    from repro.exp import harness

    before = harness.sample_epoch
    probe = tracing.Probe(scale=1e-4)
    probe.install()
    try:
        assert harness.sample_epoch is not before
        assert harness.sample_epoch.__wrapped__ is before
    finally:
        probe.uninstall()
    assert harness.sample_epoch is before
