"""Density-driven push/pull direction switching.

Applications such as SSSP and BC's forward sweep propagate from an
active set whose density swings across iterations.  Direction-optimizing
frameworks (Beamer-style, Besta et al. [17]) push while the frontier is
sparse — eliding the untouched majority — and pull once the frontier is
dense enough that gather loads beat scattered atomics.  This module
holds that heuristic once, as :class:`DirectionPolicy` over the kernel
phases, and runs it on top of the phase/trace machinery, with the
hardware configuration chosen per direction by the specialization
model's coherence/consistency sub-decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..configs import Configuration
from ..graph.csr import CSRGraph
from ..kernels import TraceBuilder, make_kernel
from ..kernels.base import EdgePhase
from ..sim.config import DEFAULT_SYSTEM, SystemConfig
from ..sim.engine import GPUSimulator
from .flexible import FlexibleSimulator

__all__ = ["DirectionPolicy", "DirectionAdaptiveResult",
           "run_direction_adaptive"]


@dataclass(frozen=True)
class DirectionPolicy:
    """Beamer-style density switching from per-edge cost estimates.

    A push iteration touches only the source frontier's out-edges, but
    each of those costs an atomic (``push_edge_cost``); a pull iteration
    scans every in-edge regardless of the frontier, at plain-load cost
    (``pull_edge_cost``).  Pull wins once the frontier's edge share
    exceeds ``pull_edge_cost / push_edge_cost`` of the graph.

    The defaults are deliberately conservative (pull only for nearly
    fully dense phases): on the modeled system, pull's blocking
    scattered reads cost about as much per edge as push's relaxed
    atomics, so elision is the dominant term.  Systems without DRFrlx
    should raise ``push_edge_cost`` — serialized atomics shift the
    crossover far toward pull (Section IV-B's interdependence).
    """

    push_edge_cost: float = 1.05
    pull_edge_cost: float = 1.0

    def choose(self, phase: EdgePhase, graph: CSRGraph) -> str:
        """Return ``'push'`` or ``'pull'`` for one edge phase."""
        if graph.num_edges == 0:
            return "push"
        if phase.source_active is None:
            return "pull"  # every vertex active -> dense by definition
        active_edges = int(graph.out_degrees[phase.source_active].sum())
        push_cost = active_edges * self.push_edge_cost
        pull_cost = graph.num_edges * self.pull_edge_cost
        return "pull" if pull_cost < push_cost else "push"

    def choose_iteration(self, iteration, graph: CSRGraph) -> str:
        """The direction of one iteration: its first edge phase decides.

        Iterations without an :class:`EdgePhase` push — vertex and
        dynamic phases realize identically in both directions.
        """
        for phase in iteration:
            if isinstance(phase, EdgePhase):
                return self.choose(phase, graph)
        return "push"


@dataclass
class DirectionAdaptiveResult:
    """Adaptive direction switching vs fixed push and fixed pull."""

    adaptive_cycles: float
    fixed_push_cycles: float
    fixed_pull_cycles: float
    directions: list[str]

    @property
    def best_fixed_cycles(self) -> float:
        return min(self.fixed_push_cycles, self.fixed_pull_cycles)

    @property
    def switches(self) -> int:
        return sum(1 for a, b in zip(self.directions, self.directions[1:])
                   if a != b)


def run_direction_adaptive(
    app: str,
    graph: CSRGraph,
    system: SystemConfig = DEFAULT_SYSTEM,
    policy: DirectionPolicy | None = None,
    push_config: Configuration | None = None,
    max_iters: int | None = None,
    seed: int = 0,
) -> DirectionAdaptiveResult:
    """Run a frontier app with per-iteration push/pull selection.

    The push iterations run on ``push_config``'s coherence+consistency
    (default SGR's: GPU + DRFrlx); pull iterations run on TG0's (pull
    needs no atomic support).  Fixed-push and fixed-pull rivals consume
    the same traces for an apples-to-apples comparison.
    """
    kernel = make_kernel(app, graph, seed=seed)
    if kernel.traversal != "static":
        raise ValueError("direction switching applies to static-traversal "
                         "applications only")
    policy = policy or DirectionPolicy()
    push_config = push_config or Configuration("push", "gpu", "drfrlx")

    builder = TraceBuilder(graph, system)
    flexible = FlexibleSimulator(system)
    fixed_push = GPUSimulator(system, push_config.coherence,
                              push_config.consistency)
    fixed_pull = GPUSimulator(system, "gpu", "drf0")

    directions: list[str] = []
    for iteration in kernel.iterations(max_iters):
        direction = policy.choose_iteration(iteration, graph)
        directions.append(direction)
        for phase in iteration:
            adaptive_trace = builder.realize(phase, direction)
            if direction == "push":
                flexible.feed(adaptive_trace, push_config.coherence,
                              push_config.consistency)
            else:
                flexible.feed(adaptive_trace, "gpu", "drf0")
            fixed_push.feed(builder.realize(phase, "push"))
            fixed_pull.feed(builder.realize(phase, "pull"))

    return DirectionAdaptiveResult(
        adaptive_cycles=flexible.result().cycles,
        fixed_push_cycles=fixed_push.result().cycles,
        fixed_pull_cycles=fixed_pull.result().cycles,
        directions=directions,
    )
