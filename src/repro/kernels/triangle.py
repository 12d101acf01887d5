"""Triangle Counting (TC), edge-iterator with neighbor intersection.

Beyond the paper's six workloads.  Static traversal, **symmetric**
control (every edge is processed exactly once — there is no frontier to
elide in either direction) and **symmetric** information (each edge
round reads *both* endpoints' adjacency lists to intersect them, so
neither realization hoists more than the other).

That double symmetry makes TC a degenerate point of the taxonomy — the
push/pull decision collapses to the atomics-vs-loads trade-off alone
(one ``atomicAdd`` per intersection hit when pushed, a register
accumulator and one store per vertex when pulled), which is exactly the
case the decision tree must resolve from the graph features rather than
the algorithmic ones.  A single kernel launch covers the whole
computation; there is no iteration structure.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .base import EdgePhase, GraphKernel

__all__ = ["TriangleCounting"]


class TriangleCounting(GraphKernel):
    """Per-vertex triangle counts on the symmetric input graph."""

    app = "TC"
    traversal = "static"
    control = "symmetric"
    information = "symmetric"

    def default_sim_iterations(self) -> int:
        return 1

    def functional(self, max_iters: int | None = None) -> np.ndarray:
        """Triangles incident to each vertex (each triangle counts once
        per corner, so ``result.sum() == 3 * num_triangles``)."""
        g = self.graph
        n = g.num_vertices
        counts = np.zeros(n, dtype=np.int64)
        sources = g.edge_sources
        for e in range(g.num_edges):
            u = int(sources[e])
            v = int(g.indices[e])
            if u >= v:  # each undirected edge once; skips self-loops too
                continue
            common = np.intersect1d(
                g.neighbors(u), g.neighbors(v), assume_unique=False
            )
            wedges = int(np.count_nonzero((common != u) & (common != v)))
            if wedges:
                counts[u] += wedges
                counts[v] += wedges
                np.add.at(counts, common[(common != u) & (common != v)], 1)
        # Every triangle {u,v,w} has three qualifying edges, each adding 1
        # to all three corners -> counts are 3x the per-corner incidence.
        return counts // 3

    def iterations(self, max_iters: int | None = None) -> Iterator[list]:
        yield [
            EdgePhase(
                name="tc",
                source_arrays=("adj_bound",),
                target_arrays=("adj_bound",),
                update_arrays=("tri_count",),
                check_target_pred_in_push=False,
                # Merge-path intersection: a few ALU ops per element of
                # the shorter adjacency list, amortized per edge.
                compute_per_edge=4,
            )
        ]
