"""Single-Source Shortest Path (SSSP), Bellman-Ford style.

Table III: static traversal, **source** control (only frontier vertices —
those whose distance changed last iteration — propagate, so push elides
entire edge loops while pull must scan every in-edge and test the source),
**source** information (the propagated ``dist[s] + w`` reads only
source-side data; push hoists ``dist[s]``).

Push relaxes out-edges with ``atomicMin``; the atomic's return value is
not consumed, so the relaxation is a fire-and-forget update that DRFrlx
can overlap.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .base import EdgePhase, GraphKernel

__all__ = ["SSSP"]

INF = np.float64(np.inf)


class SSSP(GraphKernel):
    """Bellman-Ford over a changed-vertex frontier, from the max-degree vertex."""

    app = "SSSP"
    traversal = "static"
    control = "source"
    information = "source"

    def __init__(self, graph, seed: int = 0, source: int | None = None) -> None:
        super().__init__(graph, seed)
        if source is None:
            source = int(np.argmax(graph.out_degrees))
        if not 0 <= source < graph.num_vertices:
            raise ValueError("source vertex out of range")
        self.source = source

    def _weights(self) -> np.ndarray:
        g = self.graph
        if g.weights is None:
            return np.ones(g.num_edges)
        return g.weights

    def _relax(self, dist: np.ndarray, frontier: np.ndarray) -> np.ndarray:
        """One Bellman-Ford sweep from ``frontier``; returns new distances."""
        g = self.graph
        weights = self._weights()
        sources = np.nonzero(frontier)[0]
        new_dist = dist.copy()
        counts = (g.indptr[sources + 1] - g.indptr[sources]).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            return new_dist
        # Expand every frontier vertex's edge range into flat positions.
        firsts = np.repeat(np.cumsum(counts) - counts, counts)
        positions = (np.arange(total) - firsts
                     + np.repeat(g.indptr[sources], counts))
        targets = g.indices[positions]
        candidates = np.repeat(dist[sources], counts) + weights[positions]
        np.minimum.at(new_dist, targets, candidates)
        return new_dist

    def iterations(self, max_iters: int | None = None) -> Iterator[list]:
        g = self.graph
        limit = (max_iters if max_iters is not None
                 else self.default_sim_iterations() + 1)
        dist = np.full(g.num_vertices, INF)
        dist[self.source] = 0.0
        frontier = np.zeros(g.num_vertices, dtype=bool)
        frontier[self.source] = True
        for _ in range(limit):
            if not frontier.any():
                break
            yield [
                EdgePhase(
                    name="sssp",
                    source_active=frontier,
                    source_arrays=("dist",),
                    update_arrays=("dist",),
                    uses_weights=True,
                )
            ]
            new_dist = self._relax(dist, frontier)
            frontier = new_dist < dist
            dist = new_dist
        return dist
