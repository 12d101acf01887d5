"""k-core decomposition (KC), peeling style.

Beyond the paper's six workloads.  Static traversal, **source** control
(only the round's peeled vertices propagate degree decrements — push
elides every surviving vertex's edge loop, and the peel frontier is
tiny relative to the graph) and **symmetric** information (the
decrement itself carries no data, but both realizations read the
endpoint liveness flags: push tests the target's, pull the source's).

Each round peels every live vertex whose residual degree has fallen to
the current threshold ``k``, assigns it core number ``k``, and pushes
``atomicSub`` decrements to its surviving neighbors — ParK/Pannotia
style.  The atomic's return value is not consumed (a filter kernel
re-scans degrees), so the decrements are fire-and-forget updates that
DRFrlx can overlap, like SSSP's relaxations.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .base import EdgePhase, GraphKernel, VertexPhase

__all__ = ["KCore"]


class KCore(GraphKernel):
    """Iterative peeling; returns the core number of every vertex."""

    app = "KC"
    traversal = "static"
    control = "source"
    information = "symmetric"

    def _decrement(self, degree: np.ndarray, peeled: np.ndarray) -> np.ndarray:
        """Subtract each peeled vertex's edges from its neighbors."""
        g = self.graph
        new_degree = degree.copy()
        np.subtract.at(new_degree, g.indices[peeled[g.edge_sources]], 1)
        return new_degree

    def iterations(self, max_iters: int | None = None) -> Iterator[list]:
        g = self.graph
        n = g.num_vertices
        limit = (max_iters if max_iters is not None
                 else self.default_sim_iterations())
        degree = g.out_degrees.astype(np.int64)
        alive = np.ones(n, dtype=bool)
        core = np.zeros(n, dtype=np.int64)
        k = 0
        rounds = 0
        # Only rounds that actually peel become kernel launches; threshold
        # bumps that find nothing to remove cost no work on the device.
        while rounds < limit and alive.any():
            peeled = alive & (degree <= k)
            if not peeled.any():
                k += 1
                continue
            core[peeled] = k
            survivors = alive & ~peeled
            yield [
                EdgePhase(
                    name=f"kc_peel{rounds}",
                    source_active=peeled,
                    target_active=survivors,
                    update_arrays=("degree",),
                ),
                VertexPhase(
                    name=f"kc_scan{rounds}",
                    active=survivors,
                    read_arrays=("degree",),
                    write_arrays=("vstate",),
                ),
            ]
            alive = survivors
            degree = self._decrement(degree, peeled)
            rounds += 1
        return core
