"""Kernel abstractions shared by every application.

Each application yields a sequence of **iterations**; each iteration is a
list of **phases** (kernel launches).  Phases are abstract descriptions of
the work — which vertices are active, which property arrays are read on
the source and target side, what gets updated — so the trace generator
(:mod:`repro.kernels.tracegen`) can realize either a push or a pull
variant of the same iteration, exactly like the paper's dual
implementations of one algorithm (Figure 1).

Phase kinds:

* :class:`EdgePhase` — the edge-propagating kernel of Figure 1.  Arrays in
  ``source_arrays`` are indexed by the source vertex (hoistable into the
  outer loop by push), arrays in ``target_arrays`` by the target
  (hoistable by pull); ``update_array`` receives the propagated value —
  via per-edge atomics when pushed, via one non-atomic store per target
  when pulled.
* :class:`VertexPhase` — a vertex-local kernel (no edges), e.g. the decide
  step of MIS or color assignment of CLR.
* :class:`DynamicPhase` — data-dependent traversal (CC): explicit
  per-vertex read chains plus compare-and-swap targets; direction is not a
  choice for these (Section III-B1).

These phases are the kernel layer's only IR: in Gunrock's operator
vocabulary an *advance* is an :class:`EdgePhase` and a *filter* or
*compute* step is a :class:`VertexPhase`.  An active set is a bool mask
of shape ``(num_vertices,)``, or ``None`` for every vertex.  The two are
not interchangeable: a masked phase pays per-warp predicate loads, so a
full frontier must stay ``None``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..graph.csr import CSRGraph

__all__ = ["EdgePhase", "VertexPhase", "DynamicPhase", "Iteration",
           "GraphKernel"]


@dataclass
class EdgePhase:
    """One edge-propagating kernel launch (realizable as push or pull)."""

    name: str
    #: Mask of active sources (spred); None means every vertex.
    source_active: np.ndarray | None = None
    #: Mask of active targets (tpred); None means every vertex.
    target_active: np.ndarray | None = None
    #: Property arrays read through the source vertex.
    source_arrays: tuple[str, ...] = ()
    #: Property arrays read through the target vertex.
    target_arrays: tuple[str, ...] = ()
    #: Arrays receiving edge-propagated updates (indexed by target).  Push
    #: issues one atomic per array per edge; pull accumulates in registers
    #: and issues one store per array per target — this is the hoisting
    #: asymmetry behind "information = target" applications like CLR.
    update_arrays: tuple[str, ...] = ("prop_next",)
    #: Whether edge weights are read.
    uses_weights: bool = False
    #: Whether the atomic's return value feeds control flow.
    atomic_needs_value: bool = False
    #: Whether the push realization evaluates tpred per edge (a scattered
    #: target-state load).  Kernels with idempotent updates (atomicMax
    #: into a scratch buffer) skip the check, as the Pannotia codes do;
    #: kernels whose update must be gated (BC's level test) require it.
    check_target_pred_in_push: bool = True
    #: ALU cycles per edge round.
    compute_per_edge: int = 1
    #: Extra per-edge ALU cycles the *pull* realization pays because the
    #: computation cannot be hoisted out of the inner loop (e.g. PR's
    #: rank/out-degree division) — the "hoisting computations" half of
    #: algorithmic information (Section III-B3).
    pull_extra_compute_per_edge: int = 0
    #: Hoisted per-vertex ALU cycles the *push* realization pays once in
    #: the outer loop instead.
    push_hoisted_compute: int = 0


@dataclass
class VertexPhase:
    """A vertex-local kernel launch."""

    name: str
    active: np.ndarray | None = None
    read_arrays: tuple[str, ...] = ()
    write_arrays: tuple[str, ...] = ()
    compute: int = 1


@dataclass
class DynamicPhase:
    """A data-dependent (dynamic traversal) kernel launch.

    ``chain_offsets``/``chain_values`` form a CSR-like encoding of the
    element indices each vertex reads (e.g. parent-pointer chases);
    ``cas_targets`` holds, per vertex, the element index of a
    compare-and-swap (-1 for none).  All indices address ``array``.
    """

    name: str
    array: str
    chain_offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    chain_values: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    cas_targets: np.ndarray | None = None
    active: np.ndarray | None = None
    compute_per_vertex: int = 1
    #: Optional CSR of edge-list positions each vertex streams (col_idx reads).
    col_offsets: np.ndarray | None = None
    col_values: np.ndarray | None = None
    #: Store back to ``array`` at the vertex's own index (pointer jumping).
    store_self: bool = False


Iteration = Sequence  # a list of phases


class GraphKernel(abc.ABC):
    """Base class for the applications; each yields its own phases."""

    #: Short name matching Table III ('PR', 'SSSP', ...).
    app: str = "?"
    #: 'static' apps realize both push and pull; 'dynamic' apps only one.
    traversal: str = "static"
    #: Table III control asymmetry: 'source' | 'target' | 'symmetric',
    #: or '-' for dynamic-traversal apps.  The taxonomy layer derives
    #: its per-application property table from the kernel registry, so
    #: newly registered kernels classify without further wiring.
    control: str = "symmetric"
    #: Table III information asymmetry (same vocabulary as ``control``).
    information: str = "symmetric"

    #: Iterations :meth:`functional` runs when ``max_iters`` is None;
    #: None means ``num_vertices`` (enough for every frontier app).
    convergence_cap: int | None = None

    def __init__(self, graph: CSRGraph, seed: int = 0) -> None:
        self.graph = graph
        self.seed = seed

    def functional(self, max_iters: int | None = None):
        """Run the algorithm to convergence; return its result arrays.

        Drains :meth:`iterations` (capped at ``max_iters``, else at
        :attr:`convergence_cap`) and returns the generator's return
        value, so the result comes from the same state loop that feeds
        the simulator.
        """
        cap = max_iters
        if cap is None:
            cap = self.convergence_cap or self.graph.num_vertices
        feed = self.iterations(cap)
        while True:
            try:
                next(feed)
            except StopIteration as done:
                return done.value

    @abc.abstractmethod
    def iterations(self, max_iters: int | None = None) -> Iterator[Iteration]:
        """Yield per-iteration phase lists (the timing-simulation feed).

        The one copy of the algorithm's state loop: every mask a phase
        carries comes from the state it updates, and the generator
        returns the algorithm's result once it converges or hits
        ``max_iters`` (see :meth:`functional`).
        """

    def default_sim_iterations(self) -> int:
        """Iterations to simulate for timing runs (whole app if smaller)."""
        return 5
