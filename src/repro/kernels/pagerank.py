"""PageRank (PR).

Table III: static traversal, **symmetric** control (every vertex is active
every iteration — neither side elides work), **source** information (the
propagated value ``rank/out_degree`` is a pure function of the source, so
push hoists the only property load into the outer loop while pull re-reads
it per edge).

:meth:`PageRank.iterations` is the one algorithm: the standard damped
power iteration with double-buffered ranks, one ``_step`` after each
yielded launch, run for exactly ``max_iters`` steps (no tolerance test:
:meth:`~repro.kernels.base.GraphKernel.functional` drains it to the
200-step ``convergence_cap``).  Push (atomicAdd scatter) and pull
(gather) compute identical values up to floating-point association.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .base import EdgePhase, GraphKernel

__all__ = ["PageRank"]


class PageRank(GraphKernel):
    """Damped PageRank over the symmetric input graph."""

    app = "PR"
    traversal = "static"
    control = "symmetric"
    information = "source"

    #: PR has no frontier to empty: 200 damped steps shrink the error
    #: by 0.85**200 (about 1e-14).
    convergence_cap = 200

    def __init__(self, graph, seed: int = 0, damping: float = 0.85) -> None:
        super().__init__(graph, seed)
        self.damping = damping

    def _step(self, rank: np.ndarray) -> np.ndarray:
        g = self.graph
        n = g.num_vertices
        degrees = g.out_degrees
        contrib = np.where(degrees > 0, rank / np.maximum(degrees, 1), 0.0)
        sums = np.bincount(
            g.indices, weights=np.repeat(contrib, degrees), minlength=n
        )
        # Dangling mass is redistributed uniformly (standard treatment).
        dangling = rank[degrees == 0].sum()
        return (1.0 - self.damping) / n + self.damping * (sums + dangling / n)

    def iterations(self, max_iters: int | None = None) -> Iterator[list]:
        limit = max_iters if max_iters is not None else self.default_sim_iterations()
        n = self.graph.num_vertices
        rank = np.full(n, 1.0 / n)
        for i in range(limit):
            # Double-buffered ranks: read this iteration's buffer, update
            # the other (Figure 1's i / i+1 property indexing).
            read_buf, write_buf = ("rank_a", "rank_b")[:: 1 if i % 2 == 0 else -1]
            yield [
                EdgePhase(
                    name="pr",
                    # Each edge reads the source's rank and out-degree
                    # (rank/outdeg is the propagated contribution); push
                    # hoists both loads, pull re-reads them per edge.
                    source_arrays=(read_buf, "out_degree"),
                    update_arrays=(write_buf,),
                    # The rank/out_degree division hoists into the outer
                    # loop when pushing but repeats per edge when pulling.
                    push_hoisted_compute=8,
                    pull_extra_compute_per_edge=8,
                )
            ]
            rank = self._step(rank)
        return rank
