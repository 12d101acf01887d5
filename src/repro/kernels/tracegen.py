"""Realize abstract kernel phases as push/pull warp traces.

This is where the paper's Figure 1 duality lives: one :class:`EdgePhase`
becomes either a push kernel (sources in the outer loop, hoisted source
loads, sparse remote atomics) or a pull kernel (targets in the outer loop,
hoisted target loads, blocking sparse remote reads, one dense non-atomic
update per target).  Both are one edge loop over one adjacency or its
transpose: :meth:`TraceBuilder._edge` picks the adjacency, region names,
masks, hoisted/neighbour arrays and per-edge compute from the direction,
and a single round emitter realizes either form.

Every phase kind is one thread per vertex, so one warp framing serves
all three: :meth:`TraceBuilder._kernel` splits the vertices into thread
blocks and warps, opens each warp with an acquire, applies the phase's
active mask (a state load, then the active lanes) and closes with a
release; the edge, vertex and dynamic realizers supply only the body of
an active warp.

Warp lockstep is modeled by *rounds*: in round ``r`` every lane whose
vertex has more than ``r`` edges processes its ``r``-th edge, so a warp's
edge loop runs for the warp's **maximum** active degree — which is exactly
how degree imbalance inflates execution (Section III-A3).  A dynamic
phase walks its per-vertex chains (and its ``col_idx`` stream, if any)
in rounds the same way.

Performance notes (see DESIGN.md §Performance engineering).  Realization
is one of the two hot phases of a sweep, so this module:

* converts each adjacency structure to Python lists **once** per
  builder (a dynamic phase's chains once per realization);
* has one round producer (:func:`_rounds`) for edge and dynamic phases,
  a pure-Python walk over a degree-descending lane prefix, so round
  ``r`` costs O(lanes still active) instead of O(warp width) — the
  dedup/sort downstream consumers make lane order within a round
  irrelevant;
* shares the line-quotient set (``index // elements_per_line``) between
  loads that address the same index set (e.g. ``col_idx`` and
  ``weights``);
* interns op tuples in a per-builder :class:`~repro.sim.trace.OpInterner`
  so recurring ops are stored once (the compact trace IR);
* memoizes whole realized phases keyed on a content fingerprint — see
  :meth:`TraceBuilder.realize`.

``AddressMap.region_base`` assigns region bases on **first touch**, so
every ``region_base`` call below sits at the exact op-construction point
where the original (reference) implementation touched the region; hoisting
those calls would reorder base assignment and change modeled line ids.
"""

from __future__ import annotations

import dataclasses
import hashlib
from bisect import bisect_right
from itertools import zip_longest

import numpy as np

from ..graph.csr import CSRGraph
from ..sim.address import AddressMap
from ..sim.config import SystemConfig
from ..sim.trace import (
    OP_ACQUIRE,
    OP_ATOMIC,
    OP_COMPUTE,
    OP_LOAD,
    OP_RELEASE,
    OP_STORE,
    KernelTrace,
    OpInterner,
)
from .base import DynamicPhase, EdgePhase, VertexPhase

__all__ = ["TraceBuilder"]

_ACQUIRE = (OP_ACQUIRE,)
_RELEASE = (OP_RELEASE,)

#: Name of the per-vertex state/flag array read for predicate checks.
STATE_ARRAY = "vstate"

#: Realized-phase memo capacity (LRU).  Big enough to hold both
#: directions of every phase of adjacent iterations; small enough that a
#: long-running builder cannot accumulate unbounded trace memory.
_MEMO_CAPACITY = 16


def _quotient_counts(indices, epl):
    """Sorted-unique line quotients of ``indices`` and their multiplicities."""
    counts: dict[int, int] = {}
    for i in indices:
        x = i // epl
        counts[x] = counts.get(x, 0) + 1
    quots = sorted(counts)
    return quots, [counts[x] for x in quots]


def _csr(indptr: np.ndarray, values: np.ndarray) -> tuple[list, list]:
    """A CSR stream for :func:`_rounds`: both arrays as lists."""
    return indptr.tolist(), values.tolist()


def _rounds(act, csr, epl, want_counts):
    """Yield ``(epos, nbrs, nbq, counts)`` for each round of one warp's loop.

    ``csr`` is ``(indptr, nbr_list)`` (see :func:`_csr`): lane ``v`` of
    ``act`` walks positions ``indptr[v]..indptr[v + 1]`` of the neighbour
    index array.  Per round: ``epos`` the positions the round's lanes
    read, ``nbrs`` the neighbours at them, ``nbq`` their sorted-unique
    line quotients and ``counts`` the multiplicity of each (None unless
    ``want_counts``).
    """
    indptr, nbr_list = csr
    offs = [indptr[v] for v in act]
    degs = [indptr[v + 1] - o for v, o in zip(act, offs)]
    max_deg = max(degs)
    if not max_deg:
        return
    order = sorted(range(len(degs)), key=degs.__getitem__, reverse=True)
    offs_desc = [offs[i] for i in order]
    degs_asc = sorted(degs)
    nlanes = len(degs)
    for r in range(max_deg):
        k = nlanes - bisect_right(degs_asc, r)
        epos = [o + r for o in offs_desc[:k]]
        nbrs = [nbr_list[e] for e in epos]
        if want_counts:
            nbq, counts = _quotient_counts(nbrs, epl)
        else:
            nbq = sorted({t // epl for t in nbrs})
            counts = None
        yield epos, nbrs, nbq, counts


def _check_mask(mask, phase_name: str, role: str, num_vertices: int) -> None:
    """Reject malformed active masks before they poison a realization.

    A non-bool mask silently changes digest keys and predicate
    semantics (``tolist()`` of an int mask still "works"), and a
    wrong-length mask raises an opaque IndexError deep in the warp
    loops — so both are rejected up front with the phase named.
    """
    if mask is None:
        return
    if not isinstance(mask, np.ndarray) or mask.dtype != np.bool_:
        got = (mask.dtype if isinstance(mask, np.ndarray)
               else type(mask).__name__)
        raise ValueError(
            f"phase {phase_name!r}: {role} mask must be a bool ndarray, "
            f"got {got}"
        )
    if mask.shape != (num_vertices,):
        raise ValueError(
            f"phase {phase_name!r}: {role} mask has shape {mask.shape}, "
            f"expected ({num_vertices},) to match the graph"
        )


def _digest(arr) -> str:
    """Content digest of an optional ndarray for memoization keys."""
    if arr is None:
        return "-"
    a = np.ascontiguousarray(arr)
    return (f"{a.dtype.str}{a.shape}:"
            f"{hashlib.sha1(a.tobytes()).hexdigest()}")


class TraceBuilder:
    """Builds :class:`KernelTrace` objects for one graph + system config."""

    def __init__(self, graph: CSRGraph, config: SystemConfig) -> None:
        self.graph = graph
        self.config = config
        self.amap = AddressMap(config.line_bytes, config.element_bytes)
        self._pool = OpInterner()
        self._memo: dict[tuple, KernelTrace] = {}
        self.memo_hits = 0
        self.memo_misses = 0
        self._adj: dict[str, tuple[list, list]] = {}

    # ------------------------------------------------------------------
    def realize(self, phase, direction: str) -> KernelTrace:
        """Build (or recall) the trace of one phase in the given direction.

        Realized traces are memoized on a content fingerprint — phase
        kind and every field value, with SHA-1 digests standing in for
        masks and index arrays (plus the direction for edge phases; vertex
        and dynamic phases realize identically in both directions).
        Unchanged phases (dense PR phases, converged frontiers, the shared
        vertex phases of a push+pull sweep) are therefore realized once
        per workload and the cached :class:`KernelTrace` object is
        returned.
        """
        self._validate(phase)
        key = self._fingerprint(phase, direction)
        memo = self._memo
        trace = memo.pop(key, None)
        if trace is not None:
            memo[key] = trace  # re-insert: LRU refresh
            self.memo_hits += 1
            return trace
        trace = self._build(phase, direction)
        self.memo_misses += 1
        memo[key] = trace
        if len(memo) > _MEMO_CAPACITY:
            del memo[next(iter(memo))]
        return trace

    def realize_iteration(self, phases, direction: str) -> list[KernelTrace]:
        """Realize every phase of one iteration."""
        return [self.realize(phase, direction) for phase in phases]

    # ------------------------------------------------------------------
    def _validate(self, phase) -> None:
        n = self.graph.num_vertices
        if isinstance(phase, EdgePhase):
            _check_mask(phase.source_active, phase.name, "source_active", n)
            _check_mask(phase.target_active, phase.name, "target_active", n)
        elif isinstance(phase, (VertexPhase, DynamicPhase)):
            _check_mask(phase.active, phase.name, "active", n)

    def _fingerprint(self, phase, direction: str) -> tuple:
        if not isinstance(phase, (EdgePhase, VertexPhase, DynamicPhase)):
            raise TypeError(f"unknown phase type {type(phase).__name__}")
        key = [type(phase).__name__]
        if isinstance(phase, EdgePhase):
            key.append(direction)
        for f in dataclasses.fields(phase):
            value = getattr(phase, f.name)
            if value is None or isinstance(value, np.ndarray):
                value = _digest(value)
            elif isinstance(value, list):
                value = tuple(value)
            key.append(value)
        return tuple(key)

    def _build(self, phase, direction: str) -> KernelTrace:
        if isinstance(phase, VertexPhase):
            return self._vertex(phase)
        if isinstance(phase, DynamicPhase):
            return self._dynamic(phase)
        # EdgePhase (anything else was rejected by _fingerprint).
        return self._edge(phase, direction)

    # ------------------------------------------------------------------
    def _adjacency(self, direction: str) -> tuple[list, list]:
        """The adjacency's :func:`_csr` stream for one direction.

        Push walks the out-CSR, pull the in-CSR; the list mirrors are
        built once per builder (the first pull also materializes the
        graph's CSC view).
        """
        adj = self._adj.get(direction)
        if adj is None:
            g = self.graph
            adj = self._adj[direction] = (
                _csr(g.indptr, g.indices) if direction == "push"
                else _csr(g.in_indptr, g.in_indices))
        return adj

    def _kernel(self, name: str, mask, body, head=None) -> KernelTrace:
        """Frame a one-thread-per-vertex kernel warp by warp.

        Thread blocks of ``tb_size`` vertices split into warps of
        ``warp_size`` lanes.  Each warp opens with an acquire, loads its
        ``head`` region (an edge loop's row pointers, one past its last
        vertex) and, under a phase ``mask`` (None: all active), loads its
        vertices' state and drops the inactive lanes.  ``body(ops, act,
        q)`` then appends the per-kind ops for the active vertices
        ``act`` (``q``: their sorted-unique line quotients), and a release
        closes the warp.
        """
        cfg = self.config
        n = self.graph.num_vertices
        rb = self.amap.region_base
        epl = self.amap.elements_per_line
        pool_op = self._pool.op
        mask_list = mask.tolist() if mask is not None else None
        trace = KernelTrace(name)
        for tb_start in range(0, n, cfg.tb_size):
            tb_end = min(tb_start + cfg.tb_size, n)
            warps = []
            for w_start in range(tb_start, tb_end, cfg.warp_size):
                w_end = min(w_start + cfg.warp_size, tb_end)
                ops = [_ACQUIRE]
                if head is not None:
                    b = rb(head)
                    ops.append(pool_op((OP_LOAD, tuple(range(
                        b + w_start // epl, b + w_end // epl + 1)))))
                if mask_list is None:
                    act = range(w_start, w_end)
                else:
                    b = rb(STATE_ARRAY)
                    ops.append(pool_op((OP_LOAD, tuple(range(
                        b + w_start // epl, b + (w_end - 1) // epl + 1)))))
                    act = [v for v in range(w_start, w_end) if mask_list[v]]
                if act:
                    body(ops, act, sorted({v // epl for v in act}))
                ops.append(_RELEASE)
                warps.append(ops)
            trace.add_block(warps)
        return trace

    # ------------------------------------------------------------------
    def _edge(self, ph: EdgePhase, direction: str) -> KernelTrace:
        """Realize one edge phase as a push or a pull kernel.

        Push walks out-edges of active sources, hoists the source loads
        (and ``push_hoisted_compute``), optionally checks the target
        predicate per edge, and issues one atomic per update array per
        round.  Pull walks in-edges of active targets, hoists the target
        loads, checks the source predicate per edge (the blocking sparse
        remote reads of Figure 1), and stores each update array once per
        target after the loop.
        """
        if direction not in ("push", "pull"):
            raise ValueError(
                f"direction must be 'push' or 'pull', got {direction!r}"
            )
        adj = self._adjacency(direction)
        if direction == "push":
            ptr_region, col_region, wt_region = (
                "row_ptr", "col_idx", "weights")
            outer_mask = ph.source_active
            nbr_mask = (ph.target_active if ph.check_target_pred_in_push
                        else None)
            hoisted, nbr_arrays = ph.source_arrays, ph.target_arrays
            compute = ph.compute_per_edge
            hoist = ph.push_hoisted_compute
            atomics, stores = ph.update_arrays, ()
        else:
            ptr_region, col_region, wt_region = (
                "in_row_ptr", "in_col_idx", "in_weights")
            outer_mask = ph.target_active
            nbr_mask = ph.source_active
            hoisted, nbr_arrays = ph.target_arrays, ph.source_arrays
            compute = ph.compute_per_edge + ph.pull_extra_compute_per_edge
            hoist = 0
            atomics, stores = (), ph.update_arrays
        if not ph.uses_weights:
            wt_region = None
        rb = self.amap.region_base
        epl = self.amap.elements_per_line
        pool_op = self._pool.op
        nbr_list = nbr_mask.tolist() if nbr_mask is not None else None
        # Unfiltered rounds hand their neighbour counts straight to the
        # atomics; filtered rounds recount what survives the predicate.
        want_counts = bool(atomics) and nbr_list is None
        needs_value = ph.atomic_needs_value
        compute_op = pool_op((OP_COMPUTE, compute))
        hoist_op = pool_op((OP_COMPUTE, hoist)) if hoist else None

        def body(ops, act, q):
            for arr in hoisted:
                b = rb(arr)
                ops.append(pool_op((OP_LOAD, tuple([b + x for x in q]))))
            if hoist_op is not None:
                ops.append(hoist_op)
            for epos, nbrs, nbq, counts in _rounds(
                    act, adj, epl, want_counts):
                qe = sorted({e // epl for e in epos})
                b = rb(col_region)
                ops.append(pool_op((OP_LOAD, tuple([b + x for x in qe]))))
                if wt_region is not None:
                    b = rb(wt_region)
                    ops.append(pool_op(
                        (OP_LOAD, tuple([b + x for x in qe]))))
                if nbr_list is not None:
                    b = rb(STATE_ARRAY)
                    ops.append(pool_op(
                        (OP_LOAD, tuple([b + x for x in nbq]))))
                    nbrs = [t for t in nbrs if nbr_list[t]]
                    if atomics:
                        nbq, counts = _quotient_counts(nbrs, epl)
                    else:
                        nbq = sorted({t // epl for t in nbrs})
                if nbrs:
                    for arr in nbr_arrays:
                        b = rb(arr)
                        ops.append(pool_op(
                            (OP_LOAD, tuple([b + x for x in nbq]))))
                ops.append(compute_op)
                if nbrs:
                    for arr in atomics:
                        b = rb(arr)
                        ops.append(pool_op((
                            OP_ATOMIC,
                            tuple(zip([b + x for x in nbq], counts)),
                            needs_value)))
            # Pull: dense, non-atomic local updates (one per target).
            for arr in stores:
                b = rb(arr)
                ops.append(pool_op((OP_STORE, tuple([b + x for x in q]))))

        return self._kernel(f"{ph.name}:{direction}", outer_mask, body,
                            head=ptr_region)

    # ------------------------------------------------------------------
    def _vertex(self, ph: VertexPhase) -> KernelTrace:
        rb = self.amap.region_base
        pool_op = self._pool.op
        compute_op = pool_op((OP_COMPUTE, ph.compute))

        def body(ops, act, q):
            for arr in ph.read_arrays:
                b = rb(arr)
                ops.append(pool_op((OP_LOAD, tuple([b + x for x in q]))))
            ops.append(compute_op)
            for arr in ph.write_arrays:
                b = rb(arr)
                ops.append(pool_op((OP_STORE, tuple([b + x for x in q]))))

        return self._kernel(f"{ph.name}:vertex", ph.active, body)

    # ------------------------------------------------------------------
    def _dynamic(self, ph: DynamicPhase) -> KernelTrace:
        """Realize a data-dependent phase: lockstep chain walks.

        Round ``r`` reads every active lane's ``r``-th ``col_idx``
        position (when the phase streams edges) and its ``r``-th chain
        element, then computes; the warp runs for its longest stream.
        Both streams come from :func:`_rounds`.  A pointer-jumping phase
        stores back at the lanes' own indices, and a hooking phase ends
        with one blocking CAS round.
        """
        rb = self.amap.region_base
        epl = self.amap.elements_per_line
        pool_op = self._pool.op
        chain = _csr(ph.chain_offsets, ph.chain_values)
        cols = (_csr(ph.col_offsets, ph.col_values)
                if ph.col_offsets is not None else None)
        cas_targets = (ph.cas_targets.tolist()
                       if ph.cas_targets is not None else None)
        compute_op = pool_op((OP_COMPUTE, ph.compute_per_vertex))

        def body(ops, act, q):
            col_rounds = (_rounds(act, cols, epl, False)
                          if cols is not None else ())
            for col, reads in zip_longest(
                    col_rounds, _rounds(act, chain, epl, False)):
                if col is not None:
                    b = rb("col_idx")
                    ops.append(pool_op(
                        (OP_LOAD, tuple([b + x for x in col[2]]))))
                if reads is not None:
                    b = rb(ph.array)
                    ops.append(pool_op(
                        (OP_LOAD, tuple([b + x for x in reads[2]]))))
                ops.append(compute_op)
            if ph.store_self:
                b = rb(ph.array)
                ops.append(pool_op((OP_STORE, tuple([b + x for x in q]))))
            if cas_targets is not None:
                cas = [c for c in (cas_targets[v] for v in act) if c >= 0]
                if cas:
                    # CAS results steer control flow: always blocking.
                    cq, counts = _quotient_counts(cas, epl)
                    b = rb(ph.array)
                    ops.append(pool_op((
                        OP_ATOMIC, tuple(zip([b + x for x in cq], counts)),
                        True)))

        return self._kernel(f"{ph.name}:dynamic", ph.active, body)
