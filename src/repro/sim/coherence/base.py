"""Memory-system base: shared structure for both coherence protocols.

The memory system owns the per-SM L1s, the shared banked L2, the MSHR and
store-buffer resource models, the per-line atomic sequencers, and the
DeNovo ownership directory.  Protocol subclasses implement the latency
policy for loads, stores, atomics, and acquires.

Resource modeling: MSHRs and store-buffer entries are FIFO-recycled rings
of free-at times — reserving a slot that is still busy pushes the request
out to the slot's free time.  Per-line sequencers serialize atomic
operations to the same address, wherever they execute (L2 bank for GPU
coherence, owning L1 for DeNovo).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field, fields

from ..cache import OWNED, VALID, SetAssocCache
from ..config import SystemConfig

__all__ = ["MemoryStats", "MemorySystem"]


@dataclass
class MemoryStats:
    """Event counters exposed for tests and analyses."""

    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    stores: int = 0
    atomics: int = 0
    atomics_local: int = 0
    atomics_remote_transfer: int = 0
    ownership_registrations: int = 0
    acquires: int = 0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe mapping of every counter (``extra`` copied)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "extra"}
        data["extra"] = dict(self.extra)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MemoryStats":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown MemoryStats fields: {sorted(unknown)}")
        payload = dict(data)
        payload["extra"] = dict(payload.get("extra", {}))
        return cls(**payload)


class _Ring:
    """FIFO-recycled pool of ``n`` resource slots holding free-at times."""

    __slots__ = ("free_at", "idx", "n")

    def __init__(self, n: int) -> None:
        self.free_at = [0.0] * n
        self.idx = 0
        self.n = n

    def reserve(self, now: float, hold: float) -> float:
        """Claim the next slot; return the (possibly delayed) start time."""
        i = self.idx
        self.idx = (i + 1) % self.n
        start = self.free_at[i]
        if start < now:
            start = now
        self.free_at[i] = start + hold
        return start


class MemorySystem:
    """Shared skeleton of the two coherence protocols."""

    name = "base"

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.stats = MemoryStats()
        self.l1s = [
            SetAssocCache(config.l1_lines, config.l1_assoc)
            for _ in range(config.num_sms)
        ]
        self.l2 = SetAssocCache(config.l2_lines, config.l2_assoc)
        self.owner: dict[int, int] = {}
        self.sequencer: dict[int, float] = {}
        self._mshrs = [_Ring(config.l1_mshrs) for _ in range(config.num_sms)]
        self._store_buffers = [
            _Ring(config.store_buffer_entries) for _ in range(config.num_sms)
        ]
        self._l2_bank_free = [0.0] * config.l2_banks
        self._mem_channel_free = [0.0] * config.mem_channels
        # Per-SM L1 atomic unit (DeNovo executes atomics at the owner L1,
        # which is a throughput-limited resource just like an L2 bank).
        self._l1_atomic_free = [0.0] * config.num_sms
        # Latency-model constants, predigested so the per-line service
        # loops do integer arithmetic instead of SystemConfig method
        # calls.  `% span1` with span1 == 1 yields 0, so the zero-span
        # special case in SystemConfig collapses into the same formula.
        self._l2_banks = config.l2_banks
        self._mem_channels = config.mem_channels
        self._l2_lat_min = config.l2_latency_min
        self._l2_span1 = config.l2_latency_max - config.l2_latency_min + 1
        self._mem_lat_min = config.mem_latency_min
        self._mem_span1 = config.mem_latency_max - config.mem_latency_min + 1
        self._rl1_min = config.remote_l1_latency_min
        self._rl1_span1 = (config.remote_l1_latency_max
                           - config.remote_l1_latency_min + 1)
        self._mem_occupancy = config.mem_occupancy

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _l2_service(
        self, sm: int, line: int, now: float, hold: float
    ) -> float:
        """Service an access at the line's home L2 bank.

        Models both latency (NUCA distance, memory fill) and throughput
        (bank occupancy, DRAM channel occupancy).  Returns the time the
        response reaches the requesting core.
        """
        bank = line % self._l2_banks
        banks_free = self._l2_bank_free
        start = banks_free[bank]
        if start < now:
            start = now
        banks_free[bank] = start + hold
        l2_lat = self._l2_lat_min + (bank + sm) % self._l2_span1
        # L2 lookup + VALID install, inlined (this is the hottest call in
        # the simulator).  The epoch checks mirror SetAssocCache.lookup;
        # on a miss the line is known absent (pop above removed any stale
        # entry), and no protocol ever epoch-invalidates the shared L2,
        # so the stale-victim scan is unnecessary.
        l2 = self.l2
        cache_set = l2._sets[line % l2.num_sets]
        entry = cache_set.pop(line, None)
        valid_epoch = l2._valid_epoch
        all_epoch = l2._all_epoch
        if entry is not None:
            epoch = entry >> 2
            if epoch >= all_epoch and (
                entry & 3 != VALID or epoch >= valid_epoch
            ):
                cache_set[line] = entry
                self.stats.l2_hits += 1
                return start + hold + l2_lat
        self.stats.l2_misses += 1
        if len(cache_set) >= l2.assoc:
            if valid_epoch or all_epoch:
                l2.install(line, VALID)
            else:
                del cache_set[next(iter(cache_set))]
                cache_set[line] = VALID
        else:
            epoch = valid_epoch if valid_epoch > all_epoch else all_epoch
            cache_set[line] = (epoch << 2) | VALID
        channels_free = self._mem_channel_free
        channel = line % self._mem_channels
        mem_start = channels_free[channel]
        issue = start + hold
        if mem_start < issue:
            mem_start = issue
        mem_occ = self._mem_occupancy
        channels_free[channel] = mem_start + mem_occ
        return (mem_start + mem_occ
                + self._mem_lat_min + (bank + sm) % self._mem_span1
                + l2_lat)

    def _install_l1(
        self, sm: int, line: int, state: int, now: float = 0.0
    ) -> None:
        evicted = self.l1s[sm].install(line, state)
        if evicted is not None and evicted[1] == OWNED:
            # Writing back an owned line returns registration to the L2:
            # the victim's data and directory update occupy its home bank.
            # This is the churn that makes ownership unprofitable when the
            # working set thrashes the L1 (Section IV-A2's high-volume
            # argument against DeNovo).
            victim = evicted[0]
            self.owner.pop(victim, None)
            bank = victim % self.config.l2_banks
            start = self._l2_bank_free[bank]
            if start < now:
                start = now
            self._l2_bank_free[bank] = start + self.config.l2_bank_occupancy
            self.stats.extra["owned_writebacks"] = (
                self.stats.extra.get("owned_writebacks", 0) + 1
            )

    def _serialize(self, line: int, earliest: float, hold: float) -> float:
        """Queue on the line's atomic sequencer; return operation start."""
        start = self.sequencer.get(line, 0.0)
        if start < earliest:
            start = earliest
        self.sequencer[line] = start + hold
        return start

    # ------------------------------------------------------------------
    # Protocol interface (subclasses implement)
    # ------------------------------------------------------------------
    def load(self, sm: int, lines: tuple, now: float) -> float:
        """Blocking coalesced load; returns data-arrival time."""
        raise NotImplementedError

    def store(self, sm: int, lines: tuple, now: float) -> tuple[float, float]:
        """Non-blocking store; returns (warp-accept time, global-drain time)."""
        raise NotImplementedError

    def atomic(
        self, sm: int, line: int, count: int, now: float,
        issue: float | None = None,
    ) -> float:
        """Atomic RMWs to one line; returns result-return time.

        ``now`` is the earliest the operation may logically execute (the
        consistency model's program-order floor); ``issue`` is when the
        warp issued the instruction.  Shared-resource contention (banks,
        DRAM channels, atomic units) is booked at ``issue`` so that a
        warp ordered far into the future does not reserve hardware ahead
        of requests that arrive earlier in global time.
        """
        raise NotImplementedError

    def acquire(self, sm: int) -> int:
        """Apply acquire-side invalidation; return its pipeline cost."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Per-instruction atomic entry points (subclasses override with
    # specialized loops; these reference implementations define the
    # semantics).
    # ------------------------------------------------------------------
    def atomic_round(
        self, sm: int, pairs: tuple, floor: float, issue: float
    ) -> tuple[float, int]:
        """Service one warp atomic instruction's ``(line, count)`` pairs.

        Every pair issues at ``issue`` with program-order floor ``floor``
        (the pairs belong to different lanes, so they are concurrent).
        Returns ``(done, lanes)``: the latest completion (at least
        ``floor``) and the total lane count.
        """
        atomic = self.atomic
        done = floor
        lanes = 0
        for line, count in pairs:
            lanes += count
            completion = atomic(sm, line, count, floor, issue=issue)
            if completion > done:
                done = completion
        return done, lanes

    def atomic_window(
        self, sm: int, pairs: tuple, now: float,
        outstanding: list, window: int,
    ) -> tuple[float, float]:
        """Service pairs through a DRFrlx MLP window.

        ``outstanding`` is the warp's sorted list of in-flight atomic
        completions, mutated in place.  A pair whose window is full
        blocks until the oldest in-flight completion retires.  Returns
        ``(t, last_completion)``: the issue floor after the final pair
        and the latest completion.
        """
        atomic = self.atomic
        t = now
        last = now
        for line, count in pairs:
            while outstanding and outstanding[0] <= t:
                del outstanding[0]
            if len(outstanding) >= window:
                t = outstanding.pop(0)
            completion = atomic(sm, line, count, t, issue=now)
            if completion > last:
                last = completion
            insort(outstanding, completion)
        return t, last
