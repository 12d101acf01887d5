"""Breadth-First Search (BFS), direction-optimizing.

Beyond the paper's six workloads: the canonical direction-switching
application (Beamer et al.; Besta et al. [17]).  Static traversal,
**source** control (only the current level's frontier propagates, so
push elides every settled vertex's edge loop) and **source**
information (the propagated value is the parent's level — push hoists
it; pull re-reads it per in-edge).

The push realization claims unvisited targets with a compare-and-swap
whose return value gates frontier insertion, so the atomic's result
feeds control flow (``atomic_needs_value`` — the blocking pattern that
limits what consistency relaxation can buy, Section IV-A4).  That makes
BFS the interesting generalization probe: the taxonomy must weigh
frontier elision (favoring push + relaxation) against the
value-consuming atomic (muting relaxation's benefit).

Each level is one :class:`~repro.kernels.base.EdgePhase` whose
``source_active`` mask is exactly that level's vertex set and whose
``target_active`` mask is the unvisited set.  The frontier's density
swings violently across levels — a handful of vertices, then most of
the graph, then stragglers — which is exactly the regime
:class:`repro.adaptive.DirectionPolicy` targets: choosing a direction
per iteration of :meth:`BFS.iterations` yields the classic
push→pull→push schedule once atomics cost enough more than loads
(e.g. ``push_edge_cost=3.0`` on the EML, RAJ and AMZ stand-ins).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .base import EdgePhase, GraphKernel

__all__ = ["BFS"]


class BFS(GraphKernel):
    """Level-synchronous BFS from the highest-degree vertex."""

    app = "BFS"
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

    def _expand(self, level: np.ndarray, depth: int) -> np.ndarray:
        """Settle depth+1: every unvisited out-neighbor of the frontier."""
        g = self.graph
        on_frontier = level[g.edge_sources] == depth
        targets = g.indices[on_frontier]
        new_level = level.copy()
        fresh = new_level[targets] == -1
        new_level[targets[fresh]] = depth + 1
        return new_level

    def iterations(self, max_iters: int | None = None) -> Iterator[list]:
        limit = (max_iters if max_iters is not None
                 else self.default_sim_iterations())
        level = np.full(self.graph.num_vertices, -1, dtype=np.int64)
        level[self.source] = 0
        for depth in range(limit):
            frontier = level == depth
            if not frontier.any():
                break
            yield [
                EdgePhase(
                    name=f"bfs{depth}",
                    source_active=frontier,
                    target_active=level == -1,
                    source_arrays=("level",),
                    update_arrays=("level",),
                    # The CAS claiming a target returns whether the claim
                    # won; the winner enqueues the vertex, so the atomic's
                    # value is consumed.
                    atomic_needs_value=True,
                )
            ]
            level = self._expand(level, depth)
        return level
