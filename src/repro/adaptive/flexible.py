"""A flexible (Spandex-like) system: per-kernel reconfiguration.

The paper's "need for flexibility" result motivates hardware that can
switch coherence protocol and consistency model between kernels (Spandex
[20] provides the integration layer).  :class:`FlexibleSimulator` models
such a system: every kernel launch names its (coherence, consistency)
pair; switching coherence invalidates the incoming protocol's L1s and
ownership registrations (the protocols' L1 states are not
interchangeable) and pays a reconfiguration penalty.  Each protocol has
its own memory system, L2 included: an L2 keeps what it held when its
protocol last ran.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.config import SystemConfig
from ..sim.consistency import ConsistencyModel, get_model
from ..sim.engine import ExecutionResult, GPUSimulator
from ..sim.stalls import StallBreakdown
from ..sim.trace import KernelTrace

__all__ = ["FlexibleSimulator", "ReconfigurationEvent"]


@dataclass(frozen=True)
class ReconfigurationEvent:
    """One protocol/consistency switch in a flexible run."""

    kernel_index: int
    from_coherence: str
    to_coherence: str
    from_consistency: str
    to_consistency: str

    @property
    def switched_coherence(self) -> bool:
        return self.from_coherence != self.to_coherence


@dataclass
class _ProtocolLane:
    simulator: GPUSimulator


class FlexibleSimulator:
    """Runs kernels on per-launch configurations with switching costs.

    One memory system (L1s, L2 and ownership directory) exists per
    coherence protocol (hardware tables for both protocols exist on a
    Spandex-like chip); they share a global clock.  A coherence switch
    self-invalidates the incoming protocol's L1s, clears its ownership
    directory (no L1 holds a registered line any more) and costs
    ``reconfig_cycles``; consistency switches are free (they only change
    ordering enforcement).
    """

    def __init__(
        self,
        config: SystemConfig,
        reconfig_cycles: int = 2000,
    ) -> None:
        self.config = config
        self.reconfig_cycles = reconfig_cycles
        self._lanes: dict[str, _ProtocolLane] = {}
        self._clock = 0.0
        self._kernels = 0
        self._breakdown = StallBreakdown()
        self._kernel_cycles: list[float] = []
        self._current: tuple[str, str] | None = None
        self.events: list[ReconfigurationEvent] = []

    def _lane(self, coherence: str) -> _ProtocolLane:
        if coherence not in self._lanes:
            self._lanes[coherence] = _ProtocolLane(
                GPUSimulator(self.config, coherence, "drf0")
            )
        return self._lanes[coherence]

    def feed(
        self,
        kernel: KernelTrace,
        coherence: str,
        consistency: str | ConsistencyModel,
    ) -> float:
        """Run one kernel on the named configuration; returns its cycles."""
        if isinstance(consistency, str):
            consistency = get_model(consistency)
        choice = (coherence, consistency.name)
        if self._current is not None and choice != self._current:
            self.events.append(ReconfigurationEvent(
                kernel_index=self._kernels,
                from_coherence=self._current[0],
                to_coherence=coherence,
                from_consistency=self._current[1],
                to_consistency=consistency.name,
            ))
            if coherence != self._current[0]:
                # The incoming protocol starts with cold L1s, so none
                # of them still owns a line.
                memory = self._lane(coherence).simulator.memory
                for l1 in memory.l1s:
                    l1.invalidate_all()
                memory.owner.clear()
                self._clock += self.reconfig_cycles
        self._current = choice

        lane = self._lane(coherence)
        simulator = lane.simulator
        simulator.consistency = consistency
        simulator._window = consistency.window(self.config)
        if self._kernels:
            self._clock += self.config.kernel_launch_cycles
        end = simulator._run_kernel(kernel, self._breakdown, self._clock)
        duration = end - self._clock
        self._clock = end
        self._kernels += 1
        self._kernel_cycles.append(duration)
        return duration

    def result(self) -> ExecutionResult:
        """Aggregate timing across everything fed so far."""
        return ExecutionResult(
            cycles=self._clock,
            breakdown=self._breakdown,
            kernel_cycles=list(self._kernel_cycles),
            memory_stats={
                name: lane.simulator.memory.stats
                for name, lane in self._lanes.items()
            },
        )
