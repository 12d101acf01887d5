"""Label Propagation (LP), synchronous community detection.

Beyond the paper's six workloads.  Static traversal, **symmetric**
control (every vertex re-votes every iteration — neither direction
elides work) and **source** information (the propagated value is the
source's label: push hoists it into the outer loop, pull re-reads it
per in-edge — PR's asymmetry with a mode instead of a sum).

Each iteration every vertex adopts the most frequent label among its
neighbors, breaking ties toward the smaller label; updates are
synchronous (double-buffered), so push scatters each source's label
into per-target histograms with atomics whose return values are not
consumed — fire-and-forget updates that DRFrlx can overlap.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .base import EdgePhase, GraphKernel, VertexPhase

__all__ = ["LabelPropagation"]


class LabelPropagation(GraphKernel):
    """Synchronous mode-of-neighbors label propagation.

    Synchronous propagation can oscillate on bipartite structures, so
    :meth:`functional` ends at its iteration cap (``num_vertices``) there.
    """

    app = "LP"
    traversal = "static"
    control = "symmetric"
    information = "source"

    def _step(self, labels: np.ndarray) -> np.ndarray:
        """One synchronous round: every vertex takes its neighbors' mode."""
        g = self.graph
        n = g.num_vertices
        if g.num_edges == 0:
            return labels.copy()
        # Encode (target, label) pairs so one unique() call histograms
        # every vertex's neighborhood at once.
        key = g.indices * np.int64(n) + labels[g.edge_sources]
        uniq, votes = np.unique(key, return_counts=True)
        tgt = uniq // n
        lab = uniq % n
        # Per target: highest vote count first, smallest label on ties.
        order = np.lexsort((lab, -votes, tgt))
        tgt = tgt[order]
        lab = lab[order]
        first = np.concatenate(([True], tgt[1:] != tgt[:-1]))
        new_labels = labels.copy()
        new_labels[tgt[first]] = lab[first]
        return new_labels

    def iterations(self, max_iters: int | None = None) -> Iterator[list]:
        n = self.graph.num_vertices
        limit = (max_iters if max_iters is not None
                 else self.default_sim_iterations())
        labels = np.arange(n, dtype=np.int64)
        for _ in range(limit):
            yield [
                EdgePhase(
                    name="lp_vote",
                    source_arrays=("label",),
                    update_arrays=("label_hist",),
                    check_target_pred_in_push=False,
                    # Push hoists the source's label read; pull re-derives
                    # the histogram key per in-edge.
                    pull_extra_compute_per_edge=2,
                    push_hoisted_compute=2,
                ),
                VertexPhase(
                    name="lp_assign",
                    read_arrays=("label_hist",),
                    write_arrays=("label",),
                ),
            ]
            new_labels = self._step(labels)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        return labels
