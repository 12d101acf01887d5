"""Graph Coloring (CLR), Pannotia max-min style.

Table III: static traversal, **symmetric** control (both kernels iterate
the uncolored set) and **target** information: beyond the neighbor value
read shared by both directions, the algorithm reads the target's own value
*and* color state per edge — data a pull implementation hoists into the
outer loop but a push implementation re-reads per edge.

Each round colors the local maxima (color ``2r``) and local minima
(color ``2r + 1``) of the uncolored subgraph, as in Pannotia's
``color_maxmin``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .base import EdgePhase, GraphKernel, VertexPhase

__all__ = ["GraphColoring"]

UNCOLORED = -1


class GraphColoring(GraphKernel):
    """Max-min independent-set graph coloring."""

    app = "CLR"
    traversal = "static"
    control = "symmetric"
    information = "target"

    def _values(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed + 211)
        return rng.permutation(self.graph.num_vertices).astype(np.float64)

    def _round(
        self, color: np.ndarray, value: np.ndarray, round_index: int
    ) -> np.ndarray:
        g = self.graph
        n = g.num_vertices
        uncolored = color == UNCOLORED
        sources = g.edge_sources
        live = uncolored[sources] & uncolored[g.indices]
        neighbor_max = np.full(n, -np.inf)
        neighbor_min = np.full(n, np.inf)
        np.maximum.at(neighbor_max, g.indices[live], value[sources[live]])
        np.minimum.at(neighbor_min, g.indices[live], value[sources[live]])
        new_color = color.copy()
        is_max = uncolored & (value > neighbor_max)
        is_min = uncolored & (value < neighbor_min) & ~is_max
        new_color[is_max] = 2 * round_index
        new_color[is_min] = 2 * round_index + 1
        return new_color

    def iterations(self, max_iters: int | None = None) -> Iterator[list]:
        n = self.graph.num_vertices
        limit = (max_iters if max_iters is not None
                 else self.default_sim_iterations())
        value = self._values()
        color = np.full(n, UNCOLORED, dtype=np.int64)
        for r in range(limit):
            uncolored = color == UNCOLORED
            if not uncolored.any():
                break
            yield [
                EdgePhase(
                    name="clr_minmax",
                    source_active=uncolored,
                    target_active=uncolored,
                    source_arrays=("value",),
                    target_arrays=("color",),
                    update_arrays=("nbr_max",),
                    check_target_pred_in_push=False,
                ),
                VertexPhase(
                    name="clr_assign",
                    active=uncolored,
                    read_arrays=("value", "nbr_max"),
                    write_arrays=("color", "vstate"),
                ),
            ]
            color = self._round(color, value, r)
        return color
