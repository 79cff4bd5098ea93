"""HEP — Hybrid Edge Partitioner (Mayer & Jacobsen, SIGMOD 2021).

HEP splits the graph by a degree threshold ``tau * mean_degree``:

* the *low-degree* part (edges whose endpoints are both below the
  threshold) is partitioned **in memory** with NE-style greedy neighborhood
  expansion — grow each partition around a core, always absorbing the
  boundary vertex with the fewest unassigned edges, which yields very low
  replication factors;
* the *high-degree* remainder is **streamed** with HDRF-style scoring that
  is aware of the replicas the in-memory phase already created.

``tau`` controls the split: HEP10 (tau=10) streams a noticeable share,
HEP100 (tau=100) is effectively all in-memory — the paper treats the two
settings as separate partitioners, and so do we (see :data:`HEP10`,
:data:`HEP100` factories in the registry).

Like the original, partitions grown by expansion are contiguous regions,
so the *vertex* balance degrades (paper Figure 4) while the edge balance
stays capped — both effects are reproduced here.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.partitioning.base import EdgePartitioner, build_csr, degrees_of
from repro.partitioning.edge.hdrf import stream_edges


def _ne_expand(
    src: np.ndarray,
    dst: np.ndarray,
    n_vertices: int,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """NE-style greedy expansion: assign each edge to a partition in [0, k).

    Grows partitions one at a time to ~|E|/k edges. The next vertex absorbed
    into the core is the boundary vertex with the fewest *unassigned*
    incident edges (lazy min-heap), which minimizes newly cut vertices.
    """
    m = len(src)
    parts = np.full(m, -1, dtype=np.int64)
    if m == 0:
        return parts
    indptr, nbr, eid = build_csr(src, dst, n_vertices)
    un_deg = np.diff(indptr).astype(np.int64)  # unassigned incident edges
    target = int(np.ceil(m / k))
    assigned_total = 0
    # Vertices with any unassigned edge, scanned in degree order for seeds.
    seed_order = np.argsort(un_deg, kind="stable")
    seed_ptr = 0

    for p in range(k):
        if assigned_total >= m:
            break
        if p == k - 1:
            parts[parts == -1] = p
            break
        load = 0
        heap: list[tuple[int, int]] = []
        in_core = np.zeros(n_vertices, dtype=bool)

        def absorb(x: int) -> int:
            """Assign all unassigned edges of x to p; returns count."""
            cnt = 0
            for j in range(indptr[x], indptr[x + 1]):
                e = eid[j]
                if parts[e] == -1:
                    parts[e] = p
                    cnt += 1
                    w = nbr[j]
                    un_deg[x] -= 1
                    un_deg[w] -= 1
                    if not in_core[w] and un_deg[w] > 0:
                        heapq.heappush(heap, (int(un_deg[w]), int(w)))
            return cnt

        while load < target and assigned_total < m:
            if not heap:
                # New seed: lowest-degree vertex that still has work.
                while seed_ptr < n_vertices and (
                    un_deg[seed_order[seed_ptr]] == 0 or in_core[seed_order[seed_ptr]]
                ):
                    seed_ptr += 1
                if seed_ptr >= n_vertices:
                    break
                x = int(seed_order[seed_ptr])
            else:
                d, x = heapq.heappop(heap)
                if in_core[x] or d != un_deg[x] or un_deg[x] == 0:
                    continue  # stale heap entry
            in_core[x] = True
            got = absorb(x)
            load += got
            assigned_total += got
    return parts


class HEPPartitioner(EdgePartitioner):
    category = "hybrid"

    def __init__(self, tau: float, lam: float = 1.1):
        self.tau = float(tau)
        self.lam = float(lam)
        self.name = f"HEP{int(tau)}"

    def assign(self, edges, k, *, n_vertices, seed=0, split=None):
        rng = np.random.default_rng(seed)
        src = edges["src"].to_numpy(np.int64)
        dst = edges["dst"].to_numpy(np.int64)
        m = len(src)
        deg = degrees_of(edges, n_vertices)
        mean_deg = deg[deg > 0].mean() if (deg > 0).any() else 0.0
        threshold = self.tau * mean_deg
        high = deg > threshold
        low_edge = ~(high[src] | high[dst])

        out = np.empty(m, dtype=np.int64)

        # In-memory phase on the low-degree subgraph.
        low_idx = np.flatnonzero(low_edge)
        low_parts = _ne_expand(src[low_idx], dst[low_idx], n_vertices, k, rng)
        out[low_idx] = low_parts

        # Streaming phase for edges touching high-degree vertices: HDRF,
        # seeded with the replicas and loads the in-memory phase created.
        member = np.zeros((k, n_vertices), dtype=bool)
        member[low_parts, src[low_idx]] = True
        member[low_parts, dst[low_idx]] = True
        loads = np.bincount(low_parts, minlength=k).astype(np.float64)
        high_idx = np.flatnonzero(~low_edge)
        out[high_idx] = stream_edges(src, dst, high_idx, member, loads, self.lam, 1e-9)
        return out


def hep10() -> HEPPartitioner:
    """HEP with tau=10 — a noticeable share of the graph is streamed."""
    return HEPPartitioner(tau=10.0)


def hep100() -> HEPPartitioner:
    """HEP with tau=100 — effectively fully in-memory partitioning."""
    return HEPPartitioner(tau=100.0)
