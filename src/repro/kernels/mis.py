"""Maximal Independent Set (MIS), Luby-style.

Table III: static traversal, **symmetric** control (both kernels iterate
the undecided set, so push and pull elide equal work) and **symmetric**
information (each edge compares the *same* priority array on both
endpoints — neither direction hoists more).

Each round has two kernels, as in Pannotia: an edge kernel that
propagates the maximum undecided-neighbor priority (``atomicMax`` when
pushed, a gather when pulled) and a vertex kernel that decides winners
(priority greater than every undecided neighbor joins the set; its
neighbors drop out next round).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .base import EdgePhase, GraphKernel, VertexPhase

__all__ = ["MIS"]

UNDECIDED, IN_SET, OUT = 0, 1, 2


class MIS(GraphKernel):
    """Luby's randomized maximal independent set."""

    app = "MIS"
    traversal = "static"
    control = "symmetric"
    information = "symmetric"

    def _priorities(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed + 101)
        # A random permutation guarantees unique priorities (no ties).
        return rng.permutation(self.graph.num_vertices).astype(np.float64)

    def _round(
        self, state: np.ndarray, priority: np.ndarray
    ) -> np.ndarray:
        """One Luby round; returns the updated state array."""
        g = self.graph
        n = g.num_vertices
        undecided = state == UNDECIDED
        # Max priority among *undecided* neighbors of each vertex.
        sources = g.edge_sources
        live = undecided[sources] & undecided[g.indices]
        neighbor_max = np.full(n, -1.0)
        np.maximum.at(
            neighbor_max, g.indices[live], priority[sources[live]]
        )
        new_state = state.copy()
        winners = undecided & (priority > neighbor_max)
        new_state[winners] = IN_SET
        # Neighbors of winners leave the game.
        losers = np.zeros(n, dtype=bool)
        winner_sources = winners[sources]
        losers[g.indices[winner_sources]] = True
        new_state[losers & (new_state == UNDECIDED)] = OUT
        return new_state

    def iterations(self, max_iters: int | None = None) -> Iterator[list]:
        n = self.graph.num_vertices
        limit = (max_iters if max_iters is not None
                 else self.default_sim_iterations())
        priority = self._priorities()
        state = np.zeros(n, dtype=np.int64)
        for _ in range(limit):
            undecided = state == UNDECIDED
            if not undecided.any():
                break
            yield [
                EdgePhase(
                    name="mis_max",
                    source_active=undecided,
                    target_active=undecided,
                    source_arrays=("priority",),
                    update_arrays=("neighbor_max",),
                    check_target_pred_in_push=False,
                ),
                VertexPhase(
                    name="mis_decide",
                    active=undecided,
                    read_arrays=("priority", "neighbor_max"),
                    write_arrays=("vstate",),
                ),
            ]
            state = self._round(state, priority)
        return state
