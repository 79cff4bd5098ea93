"""LDG — Linear Deterministic Greedy streaming vertex partitioner
(Stanton & Kliot, KDD 2012).

Stateful streaming edge-cut: vertices arrive one at a time; vertex v goes to

    argmax_i |N(v) ∩ P_i| * (1 - |P_i| / C)

where ``C = alpha * n / k`` is the partition capacity. The intersection term
pulls neighbors together, the multiplicative penalty keeps partitions
balanced. State: the partition of every already-placed vertex and partition
loads — the classic stateful-streaming representative in the paper's
Table 2, and the fastest-amortizing partitioner in its Table 5.
"""
from __future__ import annotations

import numpy as np

from repro.partitioning.base import VertexPartitioner, build_csr


class LDGPartitioner(VertexPartitioner):
    name = "LDG"
    category = "stateful streaming"

    def __init__(self, alpha: float = 1.05):
        self.alpha = float(alpha)

    def assign(self, edges, k, *, n_vertices, seed=0, split=None):
        rng = np.random.default_rng(seed)
        indptr, nbr, _ = build_csr(
            edges["src"].to_numpy(np.int64), edges["dst"].to_numpy(np.int64), n_vertices
        )
        out = np.full(n_vertices, -1, dtype=np.int64)
        loads = np.zeros(k, dtype=np.float64)
        cap = self.alpha * n_vertices / k
        order = rng.permutation(n_vertices)  # stream order
        for v in order:
            neigh = nbr[indptr[v] : indptr[v + 1]]
            placed = out[neigh]
            placed = placed[placed >= 0]
            if len(placed):
                inter = np.bincount(placed, minlength=k).astype(np.float64)
            else:
                inter = np.zeros(k)
            score = inter * np.maximum(0.0, 1.0 - loads / cap)
            best = np.flatnonzero(score == score.max())
            # Tie-break toward the least-loaded partition (standard LDG).
            p = best[np.argmin(loads[best])]
            out[v] = p
            loads[p] += 1.0
        return out
