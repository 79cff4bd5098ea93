"""ByteGNN-style vertex partitioner (Zheng et al., VLDB 2022).

ByteGNN partitions *for GNN mini-batch training*: it samples small BFS
blocks around **training vertices** (mirroring the sampling the GNN will
do), then greedily assigns whole blocks to partitions, balancing the
number of training vertices per partition — because in DistDGL-style
training the per-worker load is driven by the mini-batches sampled from
the worker's training vertices, not by raw vertex counts.

Implementation: for each training vertex, collect a 2-hop capped-fanout
block; assign the block to the partition maximizing vertex overlap (to
keep neighborhoods together), subject to a training-vertex balance cap;
non-block vertices inherit the majority partition of their neighbors.
"""
from __future__ import annotations

import numpy as np

from repro.partitioning.base import VertexPartitioner, build_csr


class ByteGNNPartitioner(VertexPartitioner):
    name = "ByteGNN"
    category = "in-memory"

    def __init__(self, fanout1: int = 10, fanout2: int = 5, alpha: float = 1.05):
        self.fanout1 = int(fanout1)
        self.fanout2 = int(fanout2)
        self.alpha = float(alpha)

    def assign(self, edges, k, *, n_vertices, seed=0, split=None):
        rng = np.random.default_rng(seed)
        indptr, nbr, _ = build_csr(
            edges["src"].to_numpy(np.int64), edges["dst"].to_numpy(np.int64), n_vertices
        )
        if split is not None:
            train = split.loc[split["role"] == "train", "vertex"].to_numpy(np.int64)
        else:  # fall back to the paper's 10% random training split
            train = rng.permutation(n_vertices)[: max(1, n_vertices // 10)]
        part = np.full(n_vertices, -1, dtype=np.int64)
        train_load = np.zeros(k, dtype=np.float64)
        vertex_load = np.zeros(k, dtype=np.float64)
        cap_train = self.alpha * len(train) / k
        is_train = np.zeros(n_vertices, dtype=bool)
        is_train[train] = True

        def sample_nbrs(v: int, fanout: int) -> np.ndarray:
            lo, hi = indptr[v], indptr[v + 1]
            d = hi - lo
            if d <= fanout:
                return nbr[lo:hi]
            return nbr[lo + rng.choice(d, size=fanout, replace=False)]

        for t in rng.permutation(train):
            block = [int(t)]
            hop1 = sample_nbrs(t, self.fanout1)
            block.extend(int(x) for x in hop1)
            for u in hop1[: self.fanout1 // 2]:
                block.extend(int(x) for x in sample_nbrs(int(u), self.fanout2))
            block_arr = np.unique(np.asarray(block, dtype=np.int64))
            assigned = part[block_arr]
            overlap = np.bincount(assigned[assigned >= 0], minlength=k).astype(np.float64)
            # Prefer overlap, break ties toward the lowest training load;
            # never exceed the training-balance cap, and keep total vertex
            # load within a loose guardrail so blocks cannot pile up on one
            # partition.
            cap_vertex = 1.2 * n_vertices / k
            overlap[(train_load >= cap_train) | (vertex_load >= cap_vertex)] = -np.inf
            if np.all(np.isinf(overlap) & (overlap < 0)):
                p = int(np.argmin(train_load))
            else:
                best = np.flatnonzero(overlap == overlap.max())
                p = int(best[np.argmin(train_load[best])])
            newly = block_arr[part[block_arr] < 0]
            part[newly] = p
            train_load[p] += is_train[newly].sum()
            vertex_load[p] += len(newly)

        # Remaining vertices: majority partition among neighbors, else least loaded.
        for v in np.flatnonzero(part < 0):
            neigh = part[nbr[indptr[v] : indptr[v + 1]]]
            neigh = neigh[neigh >= 0]
            if len(neigh):
                p = int(np.bincount(neigh, minlength=k).argmax())
            else:
                p = int(np.argmin(vertex_load))
            part[v] = p
            vertex_load[p] += 1
        return part
