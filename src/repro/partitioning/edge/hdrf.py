"""HDRF — High-Degree Replicated First streaming edge partitioner
(Petroni et al., CIKM 2015).

Stateful streaming vertex-cut. For every incoming edge (u, v) it scores all
k partitions with

    C(u, v, p) = g(u, p) + g(v, p) + lambda * (maxload - load_p) / (eps + maxload - minload)

where ``g(x, p) = 1 + (1 - theta(x))`` if x is already replicated on p and 0
otherwise, and ``theta(x)`` is x's normalized *partial* degree (degree seen
so far in the stream). Replicating the lower-partial-degree endpoint is
thereby preferred — hubs get replicated first — and the load term keeps the
edge balance tight. State: per-partition vertex membership, partial
degrees, partition loads. The scoring loop over k per edge is why the
paper's Figure 6 shows HDRF's partitioning time growing with the number of
partitions — our implementation reproduces that.
"""
from __future__ import annotations

import numpy as np

from repro.partitioning.base import EdgePartitioner


def stream_edges(
    src: np.ndarray,
    dst: np.ndarray,
    idx: np.ndarray,
    member: np.ndarray,
    loads: np.ndarray,
    lam: float,
    eps: float,
) -> np.ndarray:
    """Score the edges ``idx`` one at a time, in order; their partition ids.

    ``member`` (k x n_vertices replica sets) and ``loads`` (edges per
    partition) are the state to start from and are updated in place. The
    partial degrees count only the edges streamed here.
    """
    us, vs = src[idx], dst[idx]
    partial = np.zeros(member.shape[1], dtype=np.float64)
    out = np.empty(len(idx), dtype=np.int64)
    for i in range(len(idx)):
        u, v = us[i], vs[i]
        partial[u] += 1.0
        partial[v] += 1.0
        du, dv = partial[u], partial[v]
        theta_u = du / (du + dv)
        theta_v = 1.0 - theta_u
        score = member[:, u] * (2.0 - theta_u) + member[:, v] * (2.0 - theta_v)
        maxload = loads.max()
        minload = loads.min()
        if maxload > minload:
            score = score + lam * (maxload - loads) / (eps + maxload - minload)
        p = int(np.argmax(score))
        out[i] = p
        member[p, u] = True
        member[p, v] = True
        loads[p] += 1.0
    return out


class HDRFPartitioner(EdgePartitioner):
    name = "HDRF"
    category = "stateful streaming"

    def __init__(self, lam: float = 1.1, eps: float = 1e-9):
        self.lam = float(lam)
        self.eps = float(eps)

    def assign(self, edges, k, *, n_vertices, seed=0, split=None):
        src = edges["src"].to_numpy(np.int64)
        dst = edges["dst"].to_numpy(np.int64)
        return stream_edges(
            src, dst, np.arange(len(src)),
            np.zeros((k, n_vertices), dtype=bool), np.zeros(k, dtype=np.float64),
            self.lam, self.eps,
        )
