"""Connected Components (CC), ECL-CC style union-find.

Table III: **dynamic** traversal — updates chase parent pointers, so the
source/target pairs of an access are data-dependent and not edges of the
input graph.  Racy push and pull updates coexist in the same loop body, so
push-vs-pull is not a design choice (Section III-B1); the return values of
the compare-and-swap hooks feed control flow, which blocks the issuing
warp under every consistency model and limits what relaxation can buy
(Section IV-A4).

Each iteration runs two kernels, after Jaiganesh & Burtscher:

* **hook** — every vertex chases its parent chain to its root, reads its
  neighbors' roots, and CASes the larger root's parent to the smaller.
  As components merge, these reads and CASes concentrate onto ever fewer
  root entries — the constricting reuse the paper's model exploits by
  choosing DeNovo (ownership keeps the hot root lines in the L1).
* **compress** — pointer jumping: ``parent[v] = parent[parent[v]]``.

Both kernels are :class:`~repro.kernels.base.DynamicPhase` objects
yielded directly by :meth:`ConnectedComponents.iterations`: the reads
follow data-dependent parent chains, so there is no static frontier and
no push/pull choice to encode.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .base import DynamicPhase, GraphKernel

__all__ = ["ConnectedComponents"]


def _roots(parent: np.ndarray) -> np.ndarray:
    """Fully resolve every vertex's root (vectorized pointer chasing)."""
    roots = parent.copy()
    while True:
        nxt = parent[roots]
        if np.array_equal(nxt, roots):
            return roots
        roots = nxt


class ConnectedComponents(GraphKernel):
    """Parallel union-find with hooking and pointer jumping."""

    app = "CC"
    traversal = "dynamic"
    # Racy push and pull updates share one loop body, so the asymmetry
    # dimensions do not apply (the paper's '-' entries in Table III).
    control = "-"
    information = "-"

    def default_sim_iterations(self) -> int:
        return 8

    def _candidates(self, roots: np.ndarray) -> np.ndarray:
        """Per root: the smallest root across its edges (n when none)."""
        g = self.graph
        n = g.num_vertices
        candidate = np.full(n, n, dtype=np.int64)
        np.minimum.at(candidate, roots[g.indices], roots[g.edge_sources])
        return candidate

    @staticmethod
    def _hook(parent: np.ndarray,
              candidate: np.ndarray) -> tuple[np.ndarray, bool]:
        """One hooking round: every root adopts its smallest neighbor root."""
        ids = np.arange(parent.size, dtype=np.int64)
        hooked = (parent == ids) & (candidate < ids)
        new_parent = parent.copy()
        new_parent[hooked] = candidate[hooked]
        return new_parent, bool(hooked.any())

    # ------------------------------------------------------------------
    def _chains(self, parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR of every vertex's parent chain (v, parent[v], ..., root)."""
        n = parent.size
        layers = [np.arange(n, dtype=np.int64)]
        cur = layers[0]
        while True:
            nxt = parent[cur]
            if np.array_equal(nxt, cur):
                break
            layers.append(nxt)
            cur = nxt
        stacked = np.stack(layers)  # (depth, n)
        # Chain length per vertex: 1 + first index where the walk stalls.
        lens = np.ones(n, dtype=np.int64)
        for d in range(1, len(layers)):
            lens += (stacked[d] != stacked[d - 1]).astype(np.int64)
        offsets = np.concatenate(([0], np.cumsum(lens)))
        values = np.empty(int(offsets[-1]), dtype=np.int64)
        position = offsets[:-1].copy()
        for d in range(len(layers)):
            live = lens > d
            values[position[live] + d] = stacked[d][live]
        return offsets, values

    def iterations(self, max_iters: int | None = None) -> Iterator[list]:
        g = self.graph
        n = g.num_vertices
        limit = (max_iters if max_iters is not None
                 else self.default_sim_iterations())
        parent = np.arange(n, dtype=np.int64)
        ids = np.arange(n, dtype=np.int64)
        edge_positions = np.arange(g.num_edges, dtype=np.int64)
        for _ in range(limit):
            roots = _roots(parent)
            chain_offsets, chain_values = self._chains(parent)
            # Per vertex: which root would it hook, if any?
            candidate = self._candidates(roots)
            cas = np.full(n, -1, dtype=np.int64)
            better = candidate[roots] < roots
            cas[better] = roots[better]
            # Neighbor-root reads: every edge makes the vertex read the
            # neighbor's root entry in the parent array.
            neighbor_roots = roots[g.indices]
            hook_offsets, hook_values = _interleave(
                chain_offsets, chain_values, g.indptr, neighbor_roots)
            hook = DynamicPhase(
                name="cc_hook",
                array="parent",
                chain_offsets=hook_offsets,
                chain_values=hook_values,
                cas_targets=cas,
                col_offsets=g.indptr,
                col_values=edge_positions,
            )
            # Pointer jumping reads v -> parent[v] and writes back.
            jump_offsets = np.concatenate(
                ([0], np.cumsum(np.full(n, 2, dtype=np.int64)))
            )
            jump_values = np.empty(2 * n, dtype=np.int64)
            jump_values[0::2] = ids
            jump_values[1::2] = parent
            compress = DynamicPhase(
                name="cc_compress",
                array="parent",
                chain_offsets=jump_offsets,
                chain_values=jump_values,
                store_self=True,
            )
            yield [hook, compress]
            parent, changed = self._hook(parent, candidate)
            parent = parent[parent]  # pointer jumping
            if not changed:
                break
        return _roots(parent)


def _interleave(
    a_offsets: np.ndarray,
    a_values: np.ndarray,
    b_offsets: np.ndarray,
    b_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate two CSRs per row (row i: a_i then b_i).

    Returns the merged ``(offsets, values)``.  Every value moves by its
    row's shift, so the merge is two scattered copies, not a row loop.
    """
    a_lens = np.diff(a_offsets)
    b_lens = np.diff(b_offsets)
    offsets = np.zeros(a_lens.size + 1, dtype=np.int64)
    np.cumsum(a_lens + b_lens, out=offsets[1:])
    values = np.empty(int(offsets[-1]), dtype=np.int64)
    # Row i's a-values land from offsets[i], its b-values right after.
    a_lo, a_hi = a_offsets[0], a_offsets[-1]
    b_lo, b_hi = b_offsets[0], b_offsets[-1]
    a_shift = np.repeat(offsets[:-1] - a_offsets[:-1], a_lens)
    b_shift = np.repeat(offsets[:-1] + a_lens - b_offsets[:-1], b_lens)
    values[np.arange(a_lo, a_hi) + a_shift] = a_values[a_lo:a_hi]
    values[np.arange(b_lo, b_hi) + b_shift] = b_values[b_lo:b_hi]
    return offsets, values
