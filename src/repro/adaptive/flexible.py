"""A flexible (Spandex-like) system: per-kernel reconfiguration.

The paper's "need for flexibility" result motivates hardware that can
switch coherence protocol and consistency model between kernels (Spandex
[20] provides the integration layer).  :class:`FlexibleSimulator` models
such a system on one :class:`~repro.sim.engine.GPUSimulator`: every
kernel launch names its (coherence, consistency) pair and is timed by
``GPUSimulator.feed`` on the one clock.  Switching coherence invalidates
the incoming protocol's L1s and ownership registrations (the protocols'
L1 states are not interchangeable) and pays a reconfiguration penalty,
through :meth:`GPUSimulator.switch`.  Each protocol has its own memory
system, L2 included: an L2 keeps what it held when its protocol last ran.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.coherence import MemorySystem, make_memory_system
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


class FlexibleSimulator:
    """Runs kernels on per-launch configurations with switching costs.

    One memory system (L1s, L2 and ownership directory) exists per
    coherence protocol (hardware tables for both protocols exist on a
    Spandex-like chip); one simulator runs them all on its clock.  A
    coherence switch self-invalidates the incoming protocol's L1s, clears
    its ownership directory (no L1 holds a registered line any more) and
    costs ``reconfig_cycles``; consistency switches are free (they only
    change ordering enforcement).
    """

    def __init__(
        self,
        config: SystemConfig,
        reconfig_cycles: int = 2000,
    ) -> None:
        self.config = config
        self.reconfig_cycles = reconfig_cycles
        self._memories: dict[str, MemorySystem] = {}
        self._simulator: GPUSimulator | None = None
        self._current: tuple[str, str] | None = None
        self.events: list[ReconfigurationEvent] = []

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
        simulator = self._simulator
        if simulator is None:
            simulator = self._simulator = GPUSimulator(
                self.config, coherence, consistency)
            self._memories[coherence] = simulator.memory
        elif choice != self._current:
            self.events.append(ReconfigurationEvent(
                kernel_index=len(simulator.result().kernel_cycles),
                from_coherence=self._current[0],
                to_coherence=coherence,
                from_consistency=self._current[1],
                to_consistency=consistency.name,
            ))
            memory = self._memories.get(coherence)
            if memory is None:
                memory = self._memories[coherence] = make_memory_system(
                    coherence, self.config)
            cost = 0
            if coherence != self._current[0]:
                # The incoming protocol starts with cold L1s, so none
                # of them still owns a line.
                for l1 in memory.l1s:
                    l1.invalidate_all()
                memory.owner.clear()
                cost = self.reconfig_cycles
            simulator.switch(memory, consistency, cost)
        self._current = choice
        return simulator.feed(kernel)

    def result(self) -> ExecutionResult:
        """Timing across everything fed so far, memory stats per protocol."""
        result = (self._simulator.result() if self._simulator is not None
                  else ExecutionResult(0.0, StallBreakdown()))
        result.memory_stats = {
            name: memory.stats for name, memory in self._memories.items()}
        return result
