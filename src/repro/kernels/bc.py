"""Betweenness Centrality (BC), single-source Brandes.

Table III: static traversal, **source** control (both the forward BFS and
the backward accumulation are driven by a level frontier, so push elides
non-frontier sources entirely) and **symmetric** information (``sigma`` is
read on both endpoints of an edge).

The forward sweep counts shortest paths level by level (``atomicAdd`` of
``sigma`` when pushed); the backward sweep accumulates dependencies from
the deepest level up.  Each level is one kernel launch, as in Pannotia.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .base import EdgePhase, GraphKernel

__all__ = ["BetweennessCentrality", "BCResult"]


@dataclass
class BCResult:
    """Outcome of the single-source Brandes pass."""

    level: np.ndarray
    sigma: np.ndarray
    delta: np.ndarray


class BetweennessCentrality(GraphKernel):
    """Level-synchronous single-source Brandes from the max-degree vertex."""

    app = "BC"
    traversal = "static"
    control = "source"
    information = "symmetric"

    def __init__(self, graph, seed: int = 0, source: int | None = None) -> None:
        super().__init__(graph, seed)
        if source is None:
            source = int(np.argmax(graph.out_degrees))
        if not 0 <= source < graph.num_vertices:
            raise ValueError("source vertex out of range")
        self.source = source

    # ------------------------------------------------------------------
    def _forward(self):
        """BFS levels and shortest-path counts (level-synchronous)."""
        g = self.graph
        n = g.num_vertices
        level = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        level[self.source] = 0
        sigma[self.source] = 1.0
        sources_all = g.edge_sources
        current = 0
        while True:
            frontier = level == current
            if not frontier.any():
                break
            on_frontier = frontier[sources_all]
            targets = g.indices[on_frontier]
            fresh = level[targets] == -1
            level[targets[fresh]] = current + 1
            contributions = sigma[sources_all[on_frontier]]
            next_mask = level[targets] == current + 1
            np.add.at(sigma, targets[next_mask], contributions[next_mask])
            current += 1
        return level, sigma

    def _backward(self, level: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        g = self.graph
        delta = np.zeros(g.num_vertices)
        sources_all = g.edge_sources
        safe_sigma = np.maximum(sigma, 1e-300)
        for depth in range(int(level.max()), 0, -1):
            # Vertices at `depth` push their dependency to predecessors.
            on_level = level[sources_all] == depth
            preds_mask = level[g.indices] == depth - 1
            active = on_level & preds_mask
            w = sources_all[active]
            v = g.indices[active]
            contribution = sigma[v] / safe_sigma[w] * (1.0 + delta[w])
            np.add.at(delta, v, contribution)
        return delta

    # ------------------------------------------------------------------
    def iterations(self, max_iters: int | None = None) -> Iterator[list]:
        limit = (max_iters if max_iters is not None
                 else self.default_sim_iterations())
        level, sigma = self._forward()
        max_level = int(level.max())
        forward_levels = list(range(min(max_level, limit)))
        for depth in forward_levels:
            unvisited = level > depth  # discovered at depth+1 or later
            yield [
                EdgePhase(
                    name=f"bc_fwd{depth}",
                    source_active=level == depth,
                    target_active=unvisited | (level == -1),
                    source_arrays=("sigma",),
                    update_arrays=("sigma",),
                )
            ]
        backward_depths = list(range(max_level, 0, -1))[:limit]
        for depth in backward_depths:
            yield [
                EdgePhase(
                    name=f"bc_bwd{depth}",
                    source_active=level == depth,
                    target_active=level == depth - 1,
                    source_arrays=("sigma", "delta"),
                    target_arrays=("sigma",),
                    update_arrays=("delta",),
                )
            ]
        return BCResult(level, sigma, self._backward(level, sigma))
