"""DistDGL-style k-hop mini-batch neighborhood sampling.

DistDGL trains mini-batch GNNs over a vertex-partitioned (edge-cut) graph:
each worker owns one partition, samples the k-hop neighborhood of its local
training vertices with per-layer fanouts, then fetches the features of
*remote* input vertices over the network. The paper's DistDGL observables
all come from this pipeline: sampled-edge counts (computation-graph size),
input-vertex balance (Figure 14), remote vertices (Figures 24b, 26c) and
the phase-time decomposition built on top of them.

The sampler is a driver-side CSR sampler over the collected Spark edge
table, after DGL's per-seed ``sample_neighbors``: the symmetrized edge table
is collected once, turned into a CSR adjacency, and every (worker, step)
frontier is expanded hop by hop with numpy. A source with more neighbours
than the hop's fanout keeps the ``fanout`` neighbours of smallest rank,
ties broken by ``dst``; the rank is a 32-bit hash of
(seed, hop, worker, step, src, dst), so the sample depends on nothing but
its inputs. The per-step statistics, among them each hop's sampled-edge
count that the phase-time model reads, are computed with numpy too. Paper
fanouts (Section 5.1): 2-layer (25, 20), 3-layer (15, 10, 5), 4-layer
(10, 10, 5, 5); global batch size 1024 split evenly across workers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.partitioning.edge.random_ep import splitmix64

#: Paper Section 5.1 fanout schedules, keyed by number of layers.
FANOUTS: dict[int, tuple[int, ...]] = {
    2: (25, 20),
    3: (15, 10, 5),
    4: (10, 10, 5, 5),
}

@dataclass
class EpochSamplingStats:
    """Per-(worker, step) sampling statistics for one epoch."""

    k: int
    n_layers: int
    global_batch: int
    # columns: worker, step, input_vertices, remote_inputs, remote_accesses,
    # hop0_edges .. hop{n_layers-1}_edges, sampled_edges (their sum)
    per_step: pd.DataFrame
    # raw sampled edges: worker, step, src, dst, layer
    sampled: pd.DataFrame

    @property
    def n_steps(self) -> int:
        return int(self.per_step["step"].max()) + 1 if len(self.per_step) else 0

    def hop_edges(self, hop: int) -> np.ndarray:
        """Sampled edges of hop ``hop`` for each row of ``per_step``."""
        return self.per_step[f"hop{hop}_edges"].to_numpy()

    def epoch_total(self, col: str) -> float:
        return float(self.per_step[col].sum())

    def input_vertex_balance(self) -> float:
        """Paper's input-vertex balance: mean over steps of max/mean."""
        g = self.per_step.groupby("step")["input_vertices"]
        return float((g.max() / g.mean()).mean())


def plan_batches(
    train_vertices: np.ndarray,
    owner_of: np.ndarray,
    k: int,
    global_batch: int,
    *,
    seed: int = 0,
) -> pd.DataFrame:
    """Assign training vertices to (worker, step) mini-batches.

    Each worker draws ``global_batch / k`` seeds per step from its *local*
    training vertices (DistDGL semantics — training vertices live with
    their partition). Workers with small pools wrap around cyclically so
    every worker contributes to every step; the number of steps is
    ``ceil(|train| / global_batch)``.
    """
    rng = np.random.default_rng(seed)
    n_steps = max(1, int(np.ceil(len(train_vertices) / global_batch)))
    per_worker = max(1, global_batch // k)
    rows = []
    for w in range(k):
        local = train_vertices[owner_of[train_vertices] == w]
        if len(local) == 0:
            continue
        local = rng.permutation(local)
        need = n_steps * per_worker
        pool = np.resize(local, need)  # cyclic wrap-around
        steps = np.repeat(np.arange(n_steps), per_worker)
        rows.append(pd.DataFrame({"worker": w, "step": steps, "vertex": pool}))
    out = pd.concat(rows, ignore_index=True)
    # A vertex drawn twice into the same batch collapses to one seed.
    return out.drop_duplicates(["worker", "step", "vertex"]).reset_index(drop=True)


def sample_epoch(
    spark: SparkSession,
    sym_edges: DataFrame,
    seeds: pd.DataFrame,
    owner_of: np.ndarray,
    fanouts: tuple[int, ...],
    *,
    seed: int = 0,
    global_batch: int | None = None,
) -> EpochSamplingStats:
    """Sample one epoch of mini-batches; returns per-step statistics.

    ``sym_edges`` holds both directions of every edge (src, dst) so the
    sampler expands over undirected neighborhoods like DGL does on the
    symmetrized graphs of the study; it is collected once, through Arrow.
    ``spark`` is not used: the collect runs on ``sym_edges``'s session.

    The hop-``l`` frontier of a (worker, step) is its seeds plus every dst
    it sampled at hops ``< l``, so each hop re-expands the whole frontier.
    """
    k = int(owner_of.max()) + 1 if len(owner_of) else 1
    edges = sym_edges.select("src", "dst").toPandas()
    src = edges["src"].to_numpy(np.int64)
    dst = edges["dst"].to_numpy(np.int64)
    del edges
    deg = np.bincount(src, minlength=len(owner_of))
    n = len(deg)
    # CSR with each adjacency list sorted by dst, so ties in rank go to the
    # smaller dst under a stable sort.
    nbr = dst[np.argsort(src * n + dst)]
    del src, dst
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])

    # A frontier entry is one int64 key, (worker * n_steps + step) * n + vertex.
    n_steps = int(seeds["step"].max()) + 1 if len(seeds) else 1
    ws = seeds["worker"].to_numpy(np.int64) * n_steps + seeds["step"].to_numpy(np.int64)
    n_ws = int(ws.max(initial=-1)) + 1
    frontier = np.unique(ws * n + seeds["vertex"].to_numpy(np.int64))
    parts = []  # per hop: (worker * n_steps + step, src, dst)
    hop_edges = []  # per hop: sampled edges per worker * n_steps + step
    for hop, fan in enumerate(fanouts):
        ws, v = np.divmod(frontier, n)
        row, cand = _expand(indptr, nbr, v)
        keep = deg[v][row] <= fan
        capped = np.flatnonzero(~keep)
        if len(capped):
            # The rank is the top 32 bits of a splitmix64 fold over
            # (seed, hop, worker, step, src, dst). A source's candidates are
            # contiguous and sorted by dst, so one stable sort by
            # (source, rank) breaks rank ties by dst.
            worker, step = np.divmod(ws, n_steps)
            prefix = splitmix64(np.uint64([seed]))
            for field in (hop, worker, step, v):
                prefix = _fold(prefix, field)
            seg = row[capped]
            rank = _fold(prefix[seg], cand[capped]) >> np.uint64(32)
            # Valid while the frontier holds fewer than 2**32 entries.
            key = (seg.astype(np.uint64) << np.uint64(32)) | rank
            order = np.argsort(key, kind="stable")
            del key, rank
            first = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
            within = np.arange(len(seg)) - np.repeat(first, np.diff(np.r_[first, len(seg)]))
            keep[capped[order[within < fan]]] = True
            del seg, order, within
        row, cand = row[keep], cand[keep]
        hop_ws = ws[row]
        parts.append((hop_ws, v[row], cand))
        hop_edges.append(np.bincount(hop_ws, minlength=n_ws))
        frontier = np.union1d(frontier, hop_ws * n + cand)
    out_ws, out_src, out_dst = (np.concatenate(c) for c in zip(*parts))
    sampled = pd.DataFrame(
        {
            "worker": out_ws // n_steps,
            "step": out_ws % n_steps,
            "src": out_src,
            "dst": out_dst,
            "layer": np.repeat(np.arange(len(parts)), [len(p[0]) for p in parts]),
        }
    )
    return _stats_from_sampled(
        seeds, sampled, hop_edges, n_steps, owner_of, k, global_batch or 0
    )


def _expand(
    indptr: np.ndarray, nbr: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every neighbour of ``v`` as (index into ``v``, neighbour), grouped by ``v``."""
    start = indptr[v]
    deg = indptr[v + 1] - start
    row = np.repeat(np.arange(len(v)), deg)
    pos = np.arange(len(row)) + np.repeat(start - (np.cumsum(deg) - deg), deg)
    return row, nbr[pos]


def _fold(h: np.ndarray, x) -> np.ndarray:
    """Absorb one field into a running splitmix64 hash."""
    return splitmix64(h ^ np.asarray(x).astype(np.uint64))


def _stats_from_sampled(
    seeds: pd.DataFrame,
    sampled: pd.DataFrame,
    hop_edges: list[np.ndarray],
    n_steps: int,
    owner_of: np.ndarray,
    k: int,
    global_batch: int,
) -> EpochSamplingStats:
    """Numpy reduction of the sampled-edge table into per-step statistics.

    ``hop_edges[h]`` counts hop ``h``'s sampled edges per
    ``worker * n_steps + step``; it becomes the ``hop{h}_edges`` columns.
    A vertex first reached at frontier-depth ``f`` (seeds: f=0; a neighbor
    sampled in layer l: f=l+1) is part of the sampling frontier for layers
    f..n_layers-1, so a *remote* vertex incurs ``n_layers - f`` remote
    sampling accesses, and every remote input vertex incurs one feature
    fetch.
    """
    n_layers = len(hop_edges)
    first = pd.concat(
        [
            seeds.assign(first=0)[["worker", "step", "vertex", "first"]],
            sampled.rename(columns={"dst": "vertex"}).assign(
                first=lambda d: d["layer"] + 1
            )[["worker", "step", "vertex", "first"]],
        ],
        ignore_index=True,
    )
    first = first.groupby(["worker", "step", "vertex"], as_index=False)["first"].min()
    first["remote"] = (
        owner_of[first["vertex"].to_numpy()] != first["worker"].to_numpy()
    )
    first["accesses"] = np.maximum(0, n_layers - first["first"].to_numpy())
    first["remote_accesses"] = first["accesses"] * first["remote"]
    per_step = first.groupby(["worker", "step"]).agg(
        input_vertices=("vertex", "size"),
        remote_inputs=("remote", "sum"),
        remote_accesses=("remote_accesses", "sum"),
    ).reset_index()
    ws = per_step["worker"].to_numpy() * n_steps + per_step["step"].to_numpy()
    for hop, counts in enumerate(hop_edges):
        per_step[f"hop{hop}_edges"] = counts[ws]
    per_step["sampled_edges"] = sum(hop_edges)[ws]
    per_step["remote_inputs"] = per_step["remote_inputs"].astype(np.int64)
    return EpochSamplingStats(
        k=k,
        n_layers=n_layers,
        global_batch=global_batch,
        per_step=per_step,
        sampled=sampled,
    )
