"""Memory-system base: every mechanism both coherence protocols share.

The memory system owns the per-SM L1s, the shared banked L2, the MSHR and
store-buffer resource models, the per-line atomic sequencers, and the
DeNovo ownership directory.  The two protocols differ only in where
writes and atomics are registered and executed (Section II-B), so the
subclasses implement ``store``, ``atomics`` and ``acquire``; everything
else is written once here:

* ``load`` — one read path for both protocols.  A line owned by another
  SM's L1 (DeNovo only) is forwarded from it; every other miss is served
  by the home L2 bank; the line is refilled as VALID.
* ``_l2_service`` — the home-bank service: bank booking, L2 lookup and
  VALID fill, and the DRAM channel on a miss.
* ``_forward`` — a directory forward to the owner's L1.
* ``_fill`` — an L1 install that evicts a stale or LRU line and writes
  an evicted OWNED line back to the L2.

Resource modeling: MSHRs and store-buffer entries are FIFO-recycled rings
of free-at times — reserving a slot that is still busy pushes the request
out to the slot's free time.  Per-line sequencers serialize atomic
operations to the same address, wherever they execute (L2 bank for GPU
coherence, owning L1 for DeNovo).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields

from ..cache import OWNED, VALID, SetAssocCache
from ..config import SystemConfig
from ..stalls import read_fields

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
    def from_dict(cls, data: Mapping) -> "MemoryStats":
        """Inverse of :meth:`to_dict`; malformed input raises ``ValueError``.

        Unknown keys, a non-mapping payload, a counter that is not an
        ``int`` (``bool`` included), and an ``extra`` that is not a dict
        of ``int`` counters are all rejected, naming the field.
        """
        payload = read_fields("MemoryStats", data,
                              {f.name: None for f in fields(cls)}
                              | {"extra": dict})
        extra = payload.pop("extra", {})
        counters = [(repr(name), value) for name, value in payload.items()]
        counters += [(f"extra[{key!r}]", value) for key, value in extra.items()]
        for name, value in counters:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"MemoryStats field {name} must be an int, "
                    f"not {value!r}")
        return cls(**payload, extra=dict(extra))


class _Ring:
    """FIFO-recycled pool of ``n`` resource slots holding free-at times."""

    __slots__ = ("free_at", "idx", "n")

    def __init__(self, n: int) -> None:
        self.free_at = [0.0] * n
        self.idx = 0
        self.n = n


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
        # The L2 holds only VALID lines and nothing invalidates it, so
        # its epochs stay 0 and it is a plain LRU of ``VALID`` entries.
        self._l2_sets = self.l2._sets
        self._l2_nsets = self.l2.num_sets
        self._l2_assoc = self.l2.assoc
        self._rl1_min = config.remote_l1_latency_min
        self._rl1_span1 = (config.remote_l1_latency_max
                           - config.remote_l1_latency_min + 1)
        self._mem_occupancy = config.mem_occupancy

    # ------------------------------------------------------------------
    # Shared mechanisms
    # ------------------------------------------------------------------
    def load(self, sm: int, lines: tuple, now: float) -> float:
        """Blocking coalesced load; returns data-arrival time."""
        # The per-line L1 lookup/refill below is the simulator's hottest
        # loop, so it inlines the cache's packed-entry protocol (see
        # sim/cache.py) and copies `_l2_service` and `_fill`: making
        # them calls costs millions of calls per sweep (DESIGN §9).
        # Epochs are loop invariants: nothing below invalidates this L1
        # or the L2.
        l1 = self.l1s[sm]
        l1_sets = l1._sets
        l1_nsets = l1.num_sets
        l1_assoc = l1.assoc
        # ``invalidate_valid``/``invalidate_all`` keep valid_epoch >=
        # all_epoch, so a packed entry is live iff it survives the VALID
        # epoch (any state), or it is OWNED (bit 2) and survives the ALL
        # epoch — two integer compares on the packed value.  A GPU L1
        # holds only VALID lines, so for it only the first can pass.
        ve4 = l1._valid_epoch << 2
        ae4 = l1._all_epoch << 2
        packed_valid = ve4 | VALID
        l1_lat = self.config.l1_hit_latency
        bank_occ = self.config.l2_bank_occupancy
        l2_lat_min = self._l2_lat_min
        l2_span1 = self._l2_span1
        l2_sets = self._l2_sets
        l2_nsets = self._l2_nsets
        l2_assoc = self._l2_assoc
        l2_banks = self._l2_banks
        banks_free = self._l2_bank_free
        mem_channels = self._mem_channels
        mem_lat_min = self._mem_lat_min
        mem_span1 = self._mem_span1
        mem_occ = self._mem_occupancy
        channels_free = self._mem_channel_free
        owner = self.owner
        owner_get = owner.get
        forward = self._forward
        mshrs = self._mshrs[sm]
        mshr_free = mshrs.free_at
        mshr_n = mshrs.n
        worst = now + l1_lat
        hits = 0
        misses = 0
        l2_hits = 0
        l2_misses = 0
        owned_wb = 0
        for line in lines:
            cache_set = l1_sets[line % l1_nsets]
            # -1 sentinel: -1 >= ve4 is false (ve4 >= 0), and though
            # -1 & 2 is truthy, -1 >= ae4 is false too — a missing line
            # always falls through without an explicit None check.
            entry = cache_set.pop(line, -1)
            if entry >= ve4 or (entry & 2 and entry >= ae4):
                cache_set[line] = entry
                hits += 1
                continue
            misses += 1
            i = mshrs.idx
            mshrs.idx = (i + 1) % mshr_n
            start = mshr_free[i]
            if start < now:
                start = now
            mshr_free[i] = start + l2_lat_min
            holder = owner_get(line)
            if holder is not None and holder != sm:
                # Data is forwarded from the owning L1; ownership stays.
                done = forward(sm, holder, line, start) + l1_lat
            else:
                # --- copy of `_l2_service(sm, line, start, bank_occ)` ---
                bank = line % l2_banks
                bstart = banks_free[bank]
                if bstart < start:
                    bstart = start
                banks_free[bank] = bstart + bank_occ
                l2_lat = l2_lat_min + (bank + sm) % l2_span1
                l2_set = l2_sets[line % l2_nsets]
                if l2_set.pop(line, 0):
                    l2_set[line] = VALID
                    l2_hits += 1
                    done = bstart + bank_occ + l2_lat + l1_lat
                else:
                    l2_misses += 1
                    if len(l2_set) >= l2_assoc:
                        del l2_set[next(iter(l2_set))]
                    l2_set[line] = VALID
                    channel = line % mem_channels
                    mstart = channels_free[channel]
                    issue = bstart + bank_occ
                    if mstart < issue:
                        mstart = issue
                    channels_free[channel] = mstart + mem_occ
                    done = (mstart + mem_occ
                            + mem_lat_min + (bank + sm) % mem_span1
                            + l2_lat + l1_lat)
            # --- copy of `_fill(sm, cache_set, packed_valid, line, now)` ---
            if len(cache_set) >= l1_assoc:
                victim = None
                if ve4:
                    for cand, cand_entry in cache_set.items():
                        if cand_entry < ve4 and (
                            not cand_entry & 2 or cand_entry < ae4
                        ):
                            victim = cand
                            break
                if victim is None:
                    victim = next(iter(cache_set))
                    if cache_set.pop(victim) & OWNED:
                        owner.pop(victim, None)
                        vbank = victim % l2_banks
                        vstart = banks_free[vbank]
                        if vstart < now:
                            vstart = now
                        banks_free[vbank] = vstart + bank_occ
                        owned_wb += 1
                else:
                    del cache_set[victim]
            cache_set[line] = packed_valid
            if done > worst:
                worst = done
        stats = self.stats
        stats.l1_hits += hits
        stats.l1_misses += misses
        stats.l2_hits += l2_hits
        stats.l2_misses += l2_misses
        if owned_wb:
            extra = stats.extra
            extra["owned_writebacks"] = (
                extra.get("owned_writebacks", 0) + owned_wb)
        return worst

    def _l2_service(self, sm: int, line: int, start: float,
                    hold: int) -> float:
        """Serve ``line`` at its home L2 bank; return its ready time.

        The bank is held for ``hold`` cycles from ``start`` (or from when
        it frees).  A hit is ready one L2 latency after the hold; a miss
        fills the line as VALID, evicting the set's LRU line, and also
        waits for a DRAM channel.
        """
        bank = line % self._l2_banks
        banks_free = self._l2_bank_free
        bstart = banks_free[bank]
        if bstart < start:
            bstart = start
        banks_free[bank] = bstart + hold
        latency = self._l2_lat_min + (bank + sm) % self._l2_span1
        l2_set = self._l2_sets[line % self._l2_nsets]
        if l2_set.pop(line, 0):
            l2_set[line] = VALID
            self.stats.l2_hits += 1
            return bstart + hold + latency
        self.stats.l2_misses += 1
        if len(l2_set) >= self._l2_assoc:
            del l2_set[next(iter(l2_set))]
        l2_set[line] = VALID
        channels_free = self._mem_channel_free
        channel = line % self._mem_channels
        mstart = channels_free[channel]
        issue = bstart + hold
        if mstart < issue:
            mstart = issue
        mem_occ = self._mem_occupancy
        channels_free[channel] = mstart + mem_occ
        return (mstart + mem_occ + self._mem_lat_min
                + (bank + sm) % self._mem_span1 + latency)

    def _forward(self, sm: int, holder: int, line: int,
                 start: float) -> float:
        """Forward a request for ``line`` to ``holder``'s L1; return ready.

        The directory lookup holds the home bank for one occupancy; the
        data then crosses the mesh from the owner's L1.
        """
        bank = line % self._l2_banks
        banks_free = self._l2_bank_free
        bstart = banks_free[bank]
        if bstart < start:
            bstart = start
        bank_occ = self.config.l2_bank_occupancy
        banks_free[bank] = bstart + bank_occ
        return (bstart + bank_occ
                + self._rl1_min + abs(sm - holder) % self._rl1_span1)

    def _fill(self, sm: int, cache_set: dict, packed: int, line: int,
              now: float) -> None:
        """Install ``packed`` for ``line`` into one of ``sm``'s L1 sets.

        A full set evicts its first stale entry, else its LRU line.  An
        evicted OWNED line returns its registration to the L2: the
        writeback holds the victim's home bank from ``now``.
        """
        l1 = self.l1s[sm]
        if len(cache_set) >= l1.assoc:
            ve4 = l1._valid_epoch << 2
            ae4 = l1._all_epoch << 2
            victim = None
            if ve4:
                for cand, entry in cache_set.items():
                    if entry < ve4 and (not entry & 2 or entry < ae4):
                        victim = cand
                        break
            if victim is None:
                victim = next(iter(cache_set))
                if cache_set.pop(victim) & OWNED:
                    self.owner.pop(victim, None)
                    vbank = victim % self._l2_banks
                    banks_free = self._l2_bank_free
                    vstart = banks_free[vbank]
                    if vstart < now:
                        vstart = now
                    banks_free[vbank] = (vstart
                                         + self.config.l2_bank_occupancy)
                    extra = self.stats.extra
                    extra["owned_writebacks"] = (
                        extra.get("owned_writebacks", 0) + 1)
            else:
                del cache_set[victim]
        cache_set[line] = packed

    # ------------------------------------------------------------------
    # Protocol interface (subclasses implement)
    # ------------------------------------------------------------------
    def store(self, sm: int, lines: tuple, now: float) -> tuple[float, float]:
        """Non-blocking store; returns (warp-accept time, global-drain time)."""
        raise NotImplementedError

    def atomics(
        self, sm: int, pairs: tuple, floor: float, issue: float,
        outstanding: list | None = None, window: int = 0,
    ) -> tuple[float, float, int]:
        """Service one warp atomic instruction's ``(line, count)`` pairs.

        The pairs belong to different lanes, so they are concurrent: each
        executes no earlier than the program-order floor, while shared
        resources (banks, DRAM channels, atomic units) are booked at
        ``issue`` so that a warp ordered far into the future does not
        reserve hardware ahead of requests that arrive earlier in global
        time.

        With ``window == 0`` (DRF0/DRF1) every pair has floor ``floor``.
        With a DRFrlx MLP ``window``, ``outstanding`` is the warp's
        ascending list of in-flight atomic completions, mutated in place:
        a pair whose window is full raises the floor to the oldest
        in-flight completion, which then retires.

        Returns ``(t, done, lanes)``: the floor after the final pair, the
        latest completion (at least ``floor``), and the total lane count.
        """
        raise NotImplementedError

    def acquire(self, sm: int) -> int:
        """Apply acquire-side invalidation; return its pipeline cost."""
        raise NotImplementedError
