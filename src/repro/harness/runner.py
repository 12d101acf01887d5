"""Workload runner: one (app, graph) pair across many configurations.

Traces are generated once per update-propagation direction and streamed to
every configuration's simulator, so a Figure 5 sweep pays trace-generation
cost once per workload, not once per bar.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from ..configs import Configuration, figure5_configurations
from ..graph.csr import CSRGraph
from ..kernels import TraceBuilder, make_kernel
from ..obs import OBSERVER as _obs
from ..perf import collector as _perf
from ..sim.config import DEFAULT_SYSTEM, SystemConfig
from ..sim.engine import ExecutionResult, make_simulator
from ..sim.stalls import read_fields

__all__ = ["WorkloadResult", "run_workload"]


@dataclass
class WorkloadResult:
    """Timing of one workload across a configuration set."""

    app: str
    graph_name: str
    results: dict[str, ExecutionResult] = field(default_factory=dict)
    baseline: str | None = None

    @property
    def ok(self) -> bool:
        """True: this is a successful outcome.

        Mixed outcome lists from ``run_plan`` (results interleaved with
        ``UnitFailure`` records, whose ``ok`` is False) partition on
        this flag without isinstance checks.
        """
        return True

    def cycles(self, code: str) -> float:
        """Execution cycles of one configuration."""
        return self.results[code].cycles

    @property
    def best_code(self) -> str:
        """Configuration with the lowest execution time."""
        return min(self.results, key=lambda code: self.results[code].cycles)

    def normalized(self, baseline: str | None = None) -> dict[str, float]:
        """Cycles of every configuration relative to a baseline.

        Defaults to the result's own ``baseline`` field (set by
        :func:`run_workload` to the first configuration it was handed,
        which for Figure 5 ordering is the paper's normalization bar —
        TG0 for static apps, DG1 for CC), falling back to the first
        stored configuration for hand-built results that declared no
        baseline at all.  A baseline that *was* declared (or requested)
        but never simulated — a pruned sweep whose subset dropped it —
        raises a clear ``ValueError`` instead of normalizing against an
        arbitrary config.
        """
        if baseline is None:
            baseline = self.baseline or next(iter(self.results))
        if baseline not in self.results:
            raise ValueError(
                f"baseline {baseline!r} was not simulated for "
                f"{self.app}/{self.graph_name}; have "
                f"{sorted(self.results)}"
            )
        base = self.results[baseline].cycles
        if base == 0:
            raise ZeroDivisionError("baseline configuration took 0 cycles")
        return {
            code: result.cycles / base
            for code, result in self.results.items()
        }

    def to_dict(self) -> dict:
        """JSON-safe representation (crosses process and cache boundaries)."""
        return {
            "app": self.app,
            "graph_name": self.graph_name,
            "baseline": self.baseline,
            "results": {code: result.to_dict()
                        for code, result in self.results.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorkloadResult":
        """Inverse of :meth:`to_dict`; preserves configuration order.

        Malformed input raises ``ValueError`` naming the field (see
        :func:`~repro.sim.stalls.read_fields`).
        """
        data = read_fields(
            "WorkloadResult", data,
            {"app": str, "graph_name": str, "baseline": (str, type(None)),
             "results": dict}, required=("app", "graph_name", "results"))
        results = {}
        for code, result in data["results"].items():
            try:
                results[code] = ExecutionResult.from_dict(result)
            except ValueError as exc:
                raise ValueError(
                    f"WorkloadResult results[{code!r}]: {exc}") from None
        return cls(app=data["app"], graph_name=data["graph_name"],
                   baseline=data.get("baseline"), results=results)


def _trace_direction(config_direction: str) -> str:
    """Map a configuration direction onto a trace realization direction."""
    # Dynamic phases ignore direction, so any value works for 'dynamic';
    # push keeps the realization symmetric with the config naming.
    return "pull" if config_direction == "pull" else "push"


def run_workload(
    app: str,
    graph: CSRGraph,
    configs: list[Configuration] | None = None,
    system: SystemConfig = DEFAULT_SYSTEM,
    max_iters: int | None = None,
    seed: int = 0,
) -> WorkloadResult:
    """Simulate one workload on each configuration; share trace generation.

    ``configs`` defaults to the Figure 5 set for the app's traversal type.
    Raises ``ValueError`` when a configuration's direction is incompatible
    with the application (CC cannot be pushed or pulled; static apps have
    no 'dynamic' realization).
    """
    kernel = make_kernel(app, graph, seed=seed)
    if configs is None:
        configs = figure5_configurations(kernel.traversal)
    for config in configs:
        if kernel.traversal == "dynamic" and config.direction != "dynamic":
            raise ValueError(
                f"{app} has dynamic traversal; {config.code} is not runnable"
            )
        if kernel.traversal == "static" and config.direction == "dynamic":
            raise ValueError(
                f"{app} has static traversal; {config.code} is not runnable"
            )

    builder = TraceBuilder(graph, system)
    simulators = {
        config.code: (config, make_simulator(
            system, config.coherence, config.consistency
        ))
        for config in configs
    }
    # A fixed realization order: the address map lays regions out on
    # first touch, so a hash-seeded set order would move modeled cycles.
    wanted = {_trace_direction(c.direction) for c in configs}
    directions = [d for d in ("push", "pull") if d in wanted]

    # Perf collection and the observer measure our own wall clock and
    # throughput, never modeled timing: results are identical with
    # either on or off (the golden tests assert this bit-for-bit).
    perf = _perf if _perf.enabled else None
    obs = _obs if _obs.enabled else None
    sim_ops = 0
    rounds = 0
    for iteration in kernel.iterations(max_iters):
        rounds += 1
        t0 = perf.clock() if perf else 0.0
        realized = {
            direction: builder.realize_iteration(iteration, direction)
            for direction in directions
        }
        if perf:
            t1 = perf.clock()
            perf.tracegen_s += t1 - t0
            t0 = t1
        for config, simulator in simulators.values():
            for trace in realized[_trace_direction(config.direction)]:
                simulator.feed(trace)
                if perf:
                    perf.ops += trace.op_count
                if obs:
                    sim_ops += trace.op_count
        if perf:
            perf.simulate_s += perf.clock() - t0
    if perf:
        perf.workloads += 1

    outcome = WorkloadResult(app=app, graph_name=graph.name,
                             baseline=configs[0].code if configs else None)
    for code, (_, simulator) in simulators.items():
        outcome.results[code] = simulator.result()
    if obs:
        metrics = obs.metrics
        metrics.counter("sim.ops").inc(sim_ops)
        metrics.histogram("sim.rounds").observe(rounds)
        for code, result in outcome.results.items():
            metrics.histogram("sim.cycles").observe(result.cycles)
            for category, fraction in result.breakdown.fractions().items():
                metrics.histogram(
                    f"sim.stall_frac.{category}").observe(fraction)
        obs.emit("workload.simulated", app=app, graph=graph.name,
                 ops=sim_ops, rounds=rounds,
                 configs=list(outcome.results))
    return outcome
