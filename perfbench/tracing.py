"""Layer probes for the pipeline benchmark, installed from outside ``src/``.

:class:`Probe` replaces a layer's public functions, under the module
attribute its caller looks up, with a wrapper. Every wrapper runs the
output checks that need an intermediate artifact (partition ids in range,
every planned seed sampled at hop 0 of its step) and adds the time they take
to ``check_s`` so the caller can subtract it from the pass's wall-clock. With
``tracing`` on, the wrapper also records a :class:`Span` (name, start, end,
parent) and the layer counters; spans stay in memory until the run writes
them out. The time the span bookkeeping itself takes is summed into
``overhead_s``.

The counter functions below are pure functions of pandas frames so the
unit tests can drive them with hand-built inputs.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.partitioning.registry import EDGE_PARTITIONERS, VERTEX_PARTITIONERS

#: (module, attribute, layer). The module is the one whose namespace the
#: caller resolves the name in: the harness imported most functions by name,
#: the simulators and tables are called through their modules, and the
#: benchmark's own ``cut_quality`` pass calls through the defining modules.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.exp.harness", "run_distgnn_suite", "harness"),
    ("repro.exp.harness", "run_distdgl_suite", "harness"),
    ("repro.exp.harness", "load_bundle", "graphs.load"),
    ("repro.exp.harness", "symmetrized", "graphs.to_spark"),
    ("repro.exp.harness", "to_spark", "graphs.to_spark"),
    ("repro.graphs.generators", "to_spark", "graphs.to_spark"),
    ("repro.graphs.datasets", "split_to_spark", "graphs.to_spark"),
    ("repro.exp.harness", "run_partitioner", "partitioning"),
    ("repro.partitioning.base", "run_partitioner", "partitioning"),
    ("repro.partitioning.base", "assignment_to_spark", "quality"),
    ("repro.partitioning.quality", "edge_cut_quality", "quality"),
    ("repro.exp.harness", "plan_batches", "sampling.plan"),
    ("repro.exp.harness", "sample_epoch", "sampling.epoch"),
    ("repro.simulate.distgnn", "partition_stats", "simulate"),
    ("repro.simulate.distgnn", "epoch_metrics", "simulate"),
    ("repro.simulate.distdgl", "phase_times", "simulate"),
    ("repro.simulate.distdgl", "network_bytes", "simulate"),
    ("repro.exp.tables", "amortization_table", "tables"),
)

#: Every partitioner in the registry, by the name the registry keys it with.
PARTITIONER_NAMES = (*EDGE_PARTITIONERS, *VERTEX_PARTITIONERS)
HOPS = 3


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span, None at the top

    @property
    def seconds(self) -> float:
        return self.end - self.start


# -- counters -----------------------------------------------------------------


def rows_per_hop(sampled: pd.DataFrame) -> dict[int, int]:
    """Sampled-edge rows per hop (the ``layer`` column)."""
    return {int(h): int(n) for h, n in sampled.groupby("layer").size().items()}


def orphan_sources(seeds: pd.DataFrame, sampled: pd.DataFrame) -> int:
    """Distinct (worker, step, src, hop) whose src is outside the frontier.

    The hop-``l`` frontier of a (worker, step) is its seeds plus the dsts it
    sampled at hops ``< l``. A genuine k-hop sample has no orphans.
    """
    frontier = seeds[["worker", "step", "vertex"]].assign(first=-1)
    reached = sampled[["worker", "step", "dst", "layer"]].rename(
        columns={"dst": "vertex", "layer": "first"}
    )
    first = (
        pd.concat([frontier, reached], ignore_index=True)
        .groupby(["worker", "step", "vertex"], as_index=False)["first"]
        .min()
    )
    src = (
        sampled[["worker", "step", "src", "layer"]]
        .drop_duplicates()
        .rename(columns={"src": "vertex"})
        .merge(first, on=["worker", "step", "vertex"], how="left")
    )
    # A source is reached in time when it was reached at a strictly earlier hop.
    return int((~(src["first"] < src["layer"])).sum())


def fanout_violations(sampled: pd.DataFrame, fanouts: tuple[int, ...]) -> int:
    """(worker, step, src, hop) groups holding more rows than the hop's fanout."""
    n = sampled.groupby(["worker", "step", "src", "layer"]).size().reset_index(name="n")
    cap = np.asarray(fanouts)[n["layer"].to_numpy()]
    return int((n["n"].to_numpy() > cap).sum())


def missing_seeds(seeds: pd.DataFrame, sampled: pd.DataFrame, sources) -> int:
    """Planned seeds with neighbours that are no hop-0 src of their step.

    ``sources`` holds every vertex with at least one neighbour in the
    sampled graph. Each such seed has at least one hop-0 row in its own
    (worker, step); a seed without neighbours has none and is not counted.
    """
    planned = (
        seeds.loc[seeds["vertex"].isin(sources), ["worker", "step", "vertex"]]
        .drop_duplicates()
    )
    hop0 = (
        sampled.loc[sampled["layer"] == 0, ["worker", "step", "src"]]
        .drop_duplicates()
        .rename(columns={"src": "vertex"})
    )
    got = planned.merge(hop0, on=["worker", "step", "vertex"], how="left", indicator=True)
    return int((got["_merge"] == "left_only").sum())


def repeats(keys: list) -> int:
    """Calls whose key was already seen earlier in the same pass."""
    return sum(n - 1 for n in Counter(keys).values())


def self_seconds(spans: list[Span], idx: int) -> float:
    """Span ``idx``'s duration minus the part its direct children cover."""
    me = spans[idx]
    kids = sorted(
        (max(s.start, me.start), min(s.end, me.end))
        for s in spans
        if s.parent == idx
    )
    covered, reach = 0.0, me.start
    for a, b in kids:
        a = max(a, reach)
        if b > a:
            covered += b - a
            reach = b
    return me.seconds - covered


def owner_digest(owner: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(owner, dtype=np.int64).tobytes()).hexdigest()


# -- the probe ----------------------------------------------------------------


class Probe:
    """Wraps the layer functions in :data:`TARGETS` for one benchmark run."""

    def __init__(self, *, scale: float):
        self.scale = scale
        self.tracing = False
        self._originals: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a new pass: clear spans, counters and check results."""
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.check_s = 0.0
        self.overhead_s = 0.0
        self.failures: list[tuple[tuple, str]] = []  # (cell pattern, message)
        self.partition_keys: list[tuple] = []  # (graph, scale, seed, partitioner, k)
        self.epoch_keys: list[tuple] = []  # run key + (fanouts, global batch)
        self.part_seconds: Counter = Counter()
        self.hop_rows: Counter = Counter()
        self.orphans = 0
        self.violations = 0
        self.steps = 0
        self._graph_of: dict[int, tuple] = {}  # id(edges) -> (graph, scale, seed)
        self._edges: list = []  # keeps ids in _graph_of from being reused
        self._run_of_owner: dict[str, tuple] = {}
        self._pandas_of: dict[int, tuple] = {}  # id(Spark frame) -> (it, pandas source)

    # install / uninstall ------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, layer in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, mod_name, attr, layer))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def _wrap(self, fn, mod_name: str, attr: str, layer: str):
        name = f"{mod_name}.{attr}"
        after = {
            "load_bundle": self._after_load,
            "to_spark": self._after_to_spark,
            "run_partitioner": self._after_partition,
            "sample_epoch": self._after_epoch,
        }.get(attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            idx = None
            if self.tracing:
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else None
                self.spans.append(Span(f"{layer}:{name}", time.perf_counter(), 0.0, parent))
                self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self.spans[idx].end = time.perf_counter()
                    self._stack.pop()
            checked = 0.0
            if after is not None:
                t = time.perf_counter()
                after(out, args, kwargs, 0.0 if idx is None else self.spans[idx].seconds)
                t1 = time.perf_counter()
                checked = t1 - t
                self.check_s += checked
                if idx is not None:
                    # A span of its own, so the caller's self time excludes it.
                    parent = self.spans[idx].parent
                    self.spans.append(Span(f"check:{name}", t, t1, parent))
            if idx is not None:
                # The wrapper's time outside the wrapped call and the checks:
                # what tracing adds to the pass's wall-clock.
                span = self.spans[idx]
                self.overhead_s += time.perf_counter() - entered - span.seconds - checked
            return out

        return wrapper

    # per-layer hooks ----------------------------------------------------------

    def _after_load(self, bundle, args, kwargs, seconds) -> None:
        self._edges.append(bundle.edges)
        self._graph_of[id(bundle.edges)] = (
            bundle.name, kwargs.get("scale", self.scale), kwargs.get("seed", 0)
        )

    def _after_to_spark(self, sdf, args, kwargs, seconds) -> None:
        # Lets a later check read the pandas frame a Spark frame was made from.
        self._pandas_of[id(sdf)] = (sdf, args[1])

    def _after_partition(self, run, args, kwargs, seconds) -> None:
        _, edges, k = args[:3]
        graph = self._graph_of.get(id(edges), ("?", self.scale, kwargs.get("seed", 0)))
        key = (*graph, run.partitioner, k)
        parts = run.assignment["part"].to_numpy()
        if len(parts) and (parts.min() < 0 or parts.max() >= k):
            cell = (graph[0], run.partitioner, k, None, None)
            self.failures.append((cell, "partition id out of range"))
        self.partition_keys.append(key)
        self.part_seconds[run.partitioner] += seconds
        if "vertex" in run.assignment:
            owner = run.assignment.sort_values("vertex")["part"].to_numpy()
            self._run_of_owner[owner_digest(owner)] = key

    def _after_epoch(self, stats, args, kwargs, seconds) -> None:
        sym_edges, seeds, owner, fanouts = args[1:5]
        run_key = self._run_of_owner.get(owner_digest(owner), ("?",) * 5)
        batch = kwargs.get("global_batch")
        self.epoch_keys.append((*run_key, tuple(fanouts), batch))
        made_from = self._pandas_of.get(id(sym_edges))
        if made_from is not None:
            sources = made_from[1]["src"].unique()
        else:  # not made by a wrapped to_spark: ask Spark
            sources = sym_edges.select("src").distinct().toPandas()["src"]
        lost = missing_seeds(seeds, stats.sampled, sources)
        if lost:
            graph, _, _, partitioner, k = run_key
            cell = (graph, partitioner, k, batch, None)
            self.failures.append((cell, f"{lost} planned seeds not sampled at hop 0 of their step"))
        if not self.tracing:
            return
        self.steps += len(stats.per_step)
        self.hop_rows.update(rows_per_hop(stats.sampled))
        self.orphans += orphan_sources(seeds, stats.sampled)
        self.violations += fanout_violations(stats.sampled, tuple(fanouts))

    # per-layer metrics ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of the last traced pass (0 where a layer idled)."""
        busy: Counter = Counter()
        calls: Counter = Counter()
        for s in self.spans:
            layer = s.name.split(":", 1)[0]
            calls[layer] += 1
            busy[layer] += s.seconds
        harness_self = sum(
            self_seconds(self.spans, i)
            for i, s in enumerate(self.spans)
            if s.name.startswith("harness:")
        )
        rows = sum(self.hop_rows.values())
        m = {
            "graphs.load_s": busy["graphs.load"],
            "graphs.loads": calls["graphs.load"],
            "graphs.to_spark_s": busy["graphs.to_spark"],
            "partitioning.s": busy["partitioning"],
            "partitioning.calls": calls["partitioning"],
            "partitioning.repeat_calls": repeats(self.partition_keys),
        }
        for name in PARTITIONER_NAMES:
            m[f"partitioning.{name}.s"] = self.part_seconds.get(name, 0.0)
        m |= {
            "quality.s": busy["quality"],
            "quality.calls": calls["quality"],
            "sampling.plan_s": busy["sampling.plan"],
            "sampling.epoch_s": busy["sampling.epoch"],
            "sampling.epochs": calls["sampling.epoch"],
            "sampling.repeat_epochs": repeats(self.epoch_keys),
            "sampling.steps": self.steps,
            "sampling.rows": rows,
            "sampling.rows_per_s": rows / busy["sampling.epoch"] if rows else 0.0,
        }
        for h in range(HOPS):
            m[f"sampling.hop{h}.rows"] = self.hop_rows.get(h, 0)
        m |= {
            "sampling.orphan_sources": self.orphans,
            "sampling.fanout_violations": self.violations,
            "simulate.s": busy["simulate"],
            "simulate.calls": calls["simulate"],
            "tables.s": busy["tables"],
            "harness.self_s": harness_self,
            "trace.overhead_s": self.overhead_s,
        }
        return m
