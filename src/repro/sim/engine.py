"""Event-driven, warp-granular GPU timing engine.

The engine executes :class:`~repro.sim.trace.KernelTrace` sequences
against a coherence protocol (memory system) and a consistency model.
Thread blocks are dispatched to SMs greedily in wave order (bounded by
``max_tbs_per_sm``); each SM issues at most one warp op per cycle; warps
block on loads, on atomics per the consistency model, and at barriers and
kernel-boundary synchronization.

Stall accounting follows the paper's five-way classification: every issue
slot is Busy; whenever an SM has no ready warp, the gap is attributed to
the blocking reason of the warp whose readiness ends the gap (Comp, Data,
or Sync); per-SM tail time until the kernel's slowest SM finishes is
Idle.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..obs import OBSERVER as _obs
from .coherence import MemorySystem, make_memory_system
from .config import SystemConfig
from .consistency import ConsistencyModel, get_model
from .stalls import StallBreakdown, read_cycles, read_fields
from .trace import (
    OP_ACQUIRE,
    OP_ATOMIC,
    OP_BARRIER,
    OP_COMPUTE,
    OP_LOAD,
    OP_RELEASE,
    OP_STORE,
    KernelTrace,
)

__all__ = ["ExecutionResult", "GPUSimulator", "make_simulator", "simulate"]


@dataclass
class ExecutionResult:
    """Timing outcome of one workload run."""

    cycles: float
    breakdown: StallBreakdown
    kernel_cycles: list = field(default_factory=list)
    memory_stats: object = None

    def to_dict(self) -> dict:
        """JSON-safe representation (crosses process and cache boundaries).

        ``memory_stats`` objects without a ``to_dict`` (e.g. test doubles)
        are dropped rather than serialized.
        """
        stats = self.memory_stats
        return {
            "cycles": self.cycles,
            "breakdown": self.breakdown.to_dict(),
            "kernel_cycles": list(self.kernel_cycles),
            "memory_stats": (stats.to_dict()
                             if hasattr(stats, "to_dict") else None),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExecutionResult":
        """Inverse of :meth:`to_dict`; malformed input raises ``ValueError``
        naming the field (see :func:`~repro.sim.stalls.read_fields`)."""
        from .coherence import MemoryStats

        data = read_fields(
            "ExecutionResult", data,
            {"cycles": None, "breakdown": None, "kernel_cycles": list,
             "memory_stats": None}, required=("cycles", "breakdown"))
        stats = data.get("memory_stats")
        return cls(
            cycles=read_cycles("ExecutionResult", "cycles", data["cycles"]),
            breakdown=StallBreakdown.from_dict(data["breakdown"]),
            kernel_cycles=[
                read_cycles("ExecutionResult", f"kernel_cycles[{i}]", c)
                for i, c in enumerate(data.get("kernel_cycles", []))],
            memory_stats=(MemoryStats.from_dict(stats)
                          if stats is not None else None),
        )


class _Warp:
    __slots__ = ("ops", "nops", "pc", "sm", "tb", "reason", "store_drain",
                 "atomics")

    def __init__(self, ops: list, sm: int, tb: "_TB") -> None:
        self.ops = ops
        self.nops = len(ops)
        self.pc = 0
        self.sm = sm
        self.tb = tb
        # Stall reason as a small int (see _REASONS): 0=comp, 1=data,
        # 2=sync — indexes the per-SM gap accumulators directly.
        self.reason = 1
        self.store_drain = 0.0
        # In-flight atomic completions, kept sorted ascending.
        self.atomics: list = []


class _TB:
    __slots__ = ("warps_left", "barrier_parked", "barrier_count", "size")

    def __init__(self, size: int) -> None:
        self.warps_left = size
        self.size = size
        self.barrier_parked: list = []
        self.barrier_count = 0


class GPUSimulator:
    """Simulates kernel traces on one coherence + consistency configuration.

    Memory-system state (caches, ownership) persists across the kernels of
    a single :meth:`run`, mirroring back-to-back kernel launches over the
    same data.  :meth:`switch` swaps the memory system and consistency
    model between launches (the flexible system of
    :mod:`repro.adaptive.flexible`); the clock runs on across the switch.
    """

    def __init__(
        self,
        config: SystemConfig,
        coherence: str = "gpu",
        consistency: str | ConsistencyModel = "drf0",
    ) -> None:
        self.config = config
        self._accumulated = StallBreakdown()
        self._kernel_cycles: list[float] = []
        self._clock = 0.0
        self.switch(make_memory_system(coherence, config), consistency)

    def switch(
        self,
        memory: MemorySystem,
        consistency: str | ConsistencyModel,
        cost: float = 0.0,
    ) -> None:
        """Run later kernels on ``memory`` under ``consistency``.

        ``cost`` reconfiguration cycles pass on the clock before the next
        launch.  The caller prepares ``memory`` for the switch (e.g. cold
        L1s); its state is otherwise kept as it is.
        """
        if isinstance(consistency, str):
            consistency = get_model(consistency)
        self.memory = memory
        self.consistency = consistency
        self._window = consistency.window(self.config)
        self._clock += cost

    # ------------------------------------------------------------------
    def feed(self, kernel: KernelTrace) -> float:
        """Execute one kernel, accumulating into this simulator's totals.

        Lets a harness stream kernels to several simulators without
        holding more than one kernel trace in memory; returns the kernel's
        duration in cycles.  Kernels run on a single global clock so the
        memory system's resource timelines (banks, channels, sequencers)
        stay aligned across launches.  Raises ``ValueError`` when the
        kernel cannot complete: a barrier that some warp of its block
        never reaches, or a thread block left undispatched.
        """
        if self._kernel_cycles:
            self._clock += self.config.kernel_launch_cycles
        end = self._run_kernel(kernel)
        duration = end - self._clock
        self._clock = end
        self._kernel_cycles.append(duration)
        # Observation only (one flag check per kernel, nothing per op):
        # modeled numbers are computed above and never depend on it.
        if _obs.enabled:
            metrics = _obs.metrics
            metrics.counter("sim.kernels").inc()
            metrics.histogram("sim.kernel_cycles").observe(duration)
        return duration

    def result(self) -> ExecutionResult:
        """Snapshot of everything fed so far; ``cycles`` is the clock."""
        return ExecutionResult(
            cycles=self._clock,
            breakdown=self._accumulated,
            kernel_cycles=list(self._kernel_cycles),
            memory_stats=self.memory.stats,
        )

    def run(self, kernels: Iterable[KernelTrace]) -> ExecutionResult:
        """Execute the kernel sequence; return timing and stall breakdown."""
        for kernel in kernels:
            self.feed(kernel)
        return self.result()

    # ------------------------------------------------------------------
    def _run_kernel(self, kernel: KernelTrace) -> float:
        """Run ``kernel`` from the clock; return its finish time."""
        cfg = self.config
        start = self._clock
        num_sms = cfg.num_sms
        if not kernel.blocks:
            return start

        pending = deque(range(len(kernel.blocks)))
        resident = [0] * num_sms
        cursors = [start] * num_sms
        sm_end = [start] * num_sms
        tail_reason = [1] * num_sms  # 0=comp, 1=data, 2=sync
        busy = [0.0] * num_sms
        gaps = [[0.0, 0.0, 0.0] for _ in range(num_sms)]

        heap: list = []
        counter = 0

        def activate(sm: int, tb_index: int, at: float) -> None:
            nonlocal counter
            warp_ops = kernel.blocks[tb_index]
            tb = _TB(len(warp_ops))
            resident[sm] += 1
            if not warp_ops:
                resident[sm] -= 1
                return
            for ops in warp_ops:
                warp = _Warp(ops, sm, tb)
                # Every op issues exactly once, so the SM's busy-slot
                # count is known up front.
                busy[sm] += warp.nops
                counter += 1
                heapq.heappush(heap, (at, counter, warp))

        # Initial wave: breadth-first over SMs (one TB per SM per round) so
        # the residency bound is reached evenly, as a hardware TB scheduler
        # would.
        for _ in range(cfg.max_tbs_per_sm):
            if not pending:
                break
            for sm in range(num_sms):
                if not pending:
                    break
                if resident[sm] < cfg.max_tbs_per_sm:
                    activate(sm, pending.popleft(), start)

        # Hot loop: the opcode dispatch is inlined here with all lookups
        # bound to locals (millions of iterations per kernel).  Branches
        # are ordered by opcode frequency.
        memory = self.memory
        mem_load = memory.load
        mem_store = memory.store
        mem_acquire = memory.acquire
        exec_atomic = self._execute_atomic
        heappush = heapq.heappush
        heappop = heapq.heappop
        while heap:
            ready, _, warp = heappop(heap)
            # Per-warp state is loop-invariant across the run-ahead inner
            # loop; pc is kept local and written back only when the warp
            # parks (heap, barrier) — a finished warp's pc is dead.
            sm = warp.sm
            ops = warp.ops
            pc = warp.pc
            nops = warp.nops
            wreason = warp.reason
            while True:
                cur = cursors[sm]
                if ready > cur:
                    gaps[sm][wreason] += ready - cur
                    cur = ready
                # Issue slot (busy-slot counting is prepaid in activate).
                now = cur + 1
                cursors[sm] = now

                op = ops[pc]
                code = op[0]
                if code == OP_COMPUTE:
                    done_time = now + op[1] - 1
                    reason = 0
                elif code == OP_LOAD:
                    done_time = mem_load(sm, op[1], now)
                    reason = 1
                elif code == OP_ATOMIC:
                    done_time = exec_atomic(warp, op, now, sm)
                    reason = 2
                elif code == OP_STORE:
                    done_time, drain = mem_store(sm, op[1], now)
                    if drain > warp.store_drain:
                        warp.store_drain = drain
                    reason = 1
                elif code == OP_ACQUIRE:
                    done_time = now + mem_acquire(sm)
                    reason = 2
                elif code == OP_RELEASE:
                    done_time = (now if now > warp.store_drain
                                 else warp.store_drain)
                    if warp.atomics:
                        tail = max(warp.atomics)
                        if tail > done_time:
                            done_time = tail
                        warp.atomics.clear()
                    warp.store_drain = 0.0
                    reason = 2
                elif code == OP_BARRIER:
                    done_time = now
                    reason = 3
                else:
                    raise ValueError(f"unknown opcode {code!r}")

                pc += 1
                if pc < nops:
                    if reason == 3:
                        warp.pc = pc
                        tb = warp.tb
                        tb.barrier_count += 1
                        tb.barrier_parked.append((done_time, warp))
                        if tb.barrier_count == tb.size:
                            release_at = max(t for t, _ in tb.barrier_parked)
                            for _, parked in tb.barrier_parked:
                                parked.reason = 2
                                counter += 1
                                heappush(heap, (release_at, counter, parked))
                            tb.barrier_parked.clear()
                            tb.barrier_count = 0
                        break
                    # Run-ahead fast path: when this warp would become the
                    # heap's unique minimum (strictly earlier than the
                    # current head), a push/pop round trip returns it
                    # immediately — keep executing it instead.  On a tie
                    # the parked entry's lower counter wins, so only a
                    # strict inequality may bypass the heap.
                    if heap and done_time >= heap[0][0]:
                        warp.pc = pc
                        warp.reason = reason
                        counter += 1
                        heappush(heap, (done_time, counter, warp))
                        break
                    wreason = reason
                    ready = done_time
                else:
                    if done_time > sm_end[sm]:
                        sm_end[sm] = done_time
                        tail_reason[sm] = reason
                    tb = warp.tb
                    tb.warps_left -= 1
                    if tb.warps_left == 0:
                        resident[sm] -= 1
                        if pending:
                            activate(sm, pending.popleft(), done_time)
                    break

        # A drained heap with work left means a barrier that never filled
        # (a warp retired or diverged without arriving) or a block never
        # dispatched; its remaining ops would be dropped silently.
        if pending or any(resident):
            raise ValueError(
                f"kernel {kernel.name!r} cannot complete: "
                f"{sum(resident)} thread block(s) stuck at a barrier, "
                f"{len(pending)} never dispatched")

        finish = max(max(sm_end), max(cursors))
        stats = self._accumulated
        for sm in range(num_sms):
            # The drain from the last issue slot to the last completion is
            # attributed to whatever the final warp was waiting on.
            if sm_end[sm] > cursors[sm]:
                gaps[sm][tail_reason[sm]] += sm_end[sm] - cursors[sm]
            stats.busy += busy[sm]
            stats.comp += gaps[sm][0]
            stats.data += gaps[sm][1]
            stats.sync += gaps[sm][2]
            end = max(sm_end[sm], cursors[sm])
            stats.idle += finish - end
        return finish

    # ------------------------------------------------------------------
    def _execute_atomic(
        self, warp: _Warp, op: tuple, now: float, sm: int
    ) -> float:
        pairs, needs_value = op[1], op[2]
        memory = self.memory
        model = self.consistency

        # One OP_ATOMIC is one warp-level atomic instruction: its pairs
        # belong to *different lanes* (threads), so they always issue
        # concurrently.  Ordering constraints apply between successive
        # atomic instructions of the same thread, which warp lockstep
        # turns into inter-round constraints.  Each model makes exactly
        # one ``memory.atomics`` call per instruction; the models differ
        # only in its floor and in whether a DRFrlx MLP window applies.

        if model.atomics_paired:
            # DRF0: every atomic is paired sync — drain outstanding
            # accesses, self-invalidate/flush, and block until the round's
            # atomics complete.
            start = max(now, warp.store_drain)
            if warp.atomics:
                tail = max(warp.atomics)
                if tail > start:
                    start = tail
                warp.atomics.clear()
            start += memory.acquire(sm)
            warp.store_drain = 0.0
            _, done, lanes = memory.atomics(sm, pairs, start, now)
            if not needs_value and lanes > 1:
                # Paired atomics drain one lane at a time through the
                # warp's single outstanding-synchronization slot.
                done += (lanes - 1) * 2 * self.config.atomic_occupancy
            return done

        if self._window == 1:
            # DRF1: unpaired atomics stay program-ordered per thread, so a
            # new round may only issue after the previous round completed
            # — but the warp itself continues past the issue point.
            t = now
            if warp.atomics:
                tail = max(warp.atomics)
                if tail > t:
                    t = tail
                warp.atomics.clear()
            _, last_completion, lanes = memory.atomics(sm, pairs, t, now)
            if not needs_value and lanes > 1:
                # One outstanding unpaired atomic per thread, and the
                # warp's lanes share a single request slot: the lanes
                # retire serially, which is exactly the intra-thread MLP
                # that DRFrlx recovers (Section II-C).
                last_completion += (lanes - 1) * 2 * self.config.atomic_occupancy
            warp.atomics.append(last_completion)
            if needs_value:
                return last_completion
            return t

        # DRFrlx: relaxed atomics overlap freely within the MLP window.
        t, last_completion, _ = memory.atomics(
            sm, pairs, now, now, warp.atomics, self._window)
        if needs_value:
            return last_completion
        return t  # never below ``now``, the floor it started from


def make_simulator(
    config: SystemConfig,
    coherence: str = "gpu",
    consistency: str | ConsistencyModel = "drf0",
) -> GPUSimulator:
    """Build a simulator for one coherence + consistency configuration."""
    return GPUSimulator(config, coherence, consistency)


def simulate(
    kernels: Iterable[KernelTrace],
    config: SystemConfig,
    coherence: str,
    consistency: str | ConsistencyModel,
) -> ExecutionResult:
    """One-shot convenience wrapper around :func:`make_simulator`."""
    return make_simulator(config, coherence, consistency).run(kernels)
