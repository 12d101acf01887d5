"""DeNovo coherence (Section II-B).

* Written data and atomics obtain **ownership** (registration) at the L1.
  Owned lines survive acquires and are never flushed at releases.
* Atomics to locally-owned lines execute at the L1 with no L2 traffic at
  all — synchronization locality turns pushed updates into core-local
  work.  Non-owned atomics pay an ownership transfer: from the current
  owner's remote L1 (ping-pong) or from the L2 directory.
* Loads of remotely-owned lines are serviced by the owner's L1 (the
  shared ``MemorySystem.load``); other misses by the home L2 bank.
* Acquires self-invalidate only the VALID (non-owned) lines.
"""

from __future__ import annotations

from bisect import insort

from ..cache import OWNED
from .base import MemorySystem

__all__ = ["DeNovoCoherence"]


class DeNovoCoherence(MemorySystem):
    """Ownership-based coherence with L1-side atomics."""

    name = "denovo"

    def __init__(self, config) -> None:
        super().__init__(config)
        # Migratory detection: a second consecutive atomic request from
        # the same remote core migrates the line's registration to it.
        self._last_atomic_sm: dict[int, int] = {}

    def _acquire_ownership(self, sm: int, line: int, now: float) -> float:
        """Register ownership at ``sm``; return registration-complete time.

        The line comes from its current owner's L1 (which loses it) or
        from the home L2 bank, and is installed in ``sm``'s L1 as OWNED.
        """
        owner = self.owner
        holder = owner.get(line)
        if holder is not None and holder != sm:
            self.stats.atomics_remote_transfer += 1
            self.l1s[holder].invalidate(line)
            ready = self._forward(sm, holder, line, now)
        else:
            ready = self._l2_service(sm, line, now,
                                     self.config.l2_bank_occupancy)
        self.stats.ownership_registrations += 1
        owner[line] = sm
        l1 = self.l1s[sm]
        cache_set = l1._sets[line % l1.num_sets]
        cache_set.pop(line, None)
        self._fill(sm, cache_set, (l1._valid_epoch << 2) | OWNED, line, now)
        return ready

    def store(self, sm: int, lines: tuple, now: float) -> tuple[float, float]:
        cfg = self.config
        l1 = self.l1s[sm]
        l1_sets = l1._sets
        l1_nsets = l1.num_sets
        ae4 = l1._all_epoch << 2
        l1_lat = cfg.l1_hit_latency
        buf_hold = cfg.l2_latency_min + cfg.l2_bank_occupancy
        buffers = self._store_buffers[sm]
        buf_free = buffers.free_at
        buf_n = buffers.n
        acquire_ownership = self._acquire_ownership
        accept = now
        drain = now
        for line in lines:
            # Inlined peek + LRU-touch: a live OWNED packed entry has
            # bit 2 set and survives the ALL epoch (see `atomics`).
            l1_set = l1_sets[line % l1_nsets]
            entry = l1_set.get(line, -1)
            if entry & 2 and entry >= ae4:
                # Registered writes complete locally and need no flush.
                del l1_set[line]
                l1_set[line] = entry  # touch LRU
                done = now + l1_lat
            else:
                i = buffers.idx
                buffers.idx = (i + 1) % buf_n
                start = buf_free[i]
                if start < now:
                    start = now
                buf_free[i] = start + buf_hold
                if start > accept:
                    accept = start
                done = acquire_ownership(sm, line, start)
            if done > drain:
                drain = done
        self.stats.stores += len(lines)
        return accept, drain

    def acquire(self, sm: int) -> int:
        self.stats.acquires += 1
        self.l1s[sm].invalidate_valid()
        return self.config.l1_hit_latency

    def atomics(
        self, sm: int, pairs: tuple, floor: float, issue: float,
        outstanding: list | None = None, window: int = 0,
    ) -> tuple[float, float, int]:
        # Each pair takes one of three paths: a locally-owned RMW at this
        # L1, an ownership registration (unowned line, or migratory
        # sharing) followed by a local RMW, or forwarded execution at the
        # owner's L1.  Directory/bank work is booked at ``issue``; every
        # RMW waits for the program-order floor ``t`` and for prior
        # same-line work.  Epochs and the set dicts are loop invariants:
        # `_acquire_ownership` only ever single-line-invalidates *other*
        # L1s.
        cfg = self.config
        l1 = self.l1s[sm]
        l1_sets = l1._sets
        l1_nsets = l1.num_sets
        ae4 = l1._all_epoch << 2
        l1_lat = cfg.l1_hit_latency
        atomic_occ = cfg.atomic_occupancy
        l1_atomic_occ = cfg.l1_atomic_occupancy
        bank_occ = cfg.l2_bank_occupancy
        l2_banks = self._l2_banks
        banks_free = self._l2_bank_free
        l1_atomic_free = self._l1_atomic_free
        rl1_min = self._rl1_min
        rl1_span1 = self._rl1_span1
        l1s = self.l1s
        owner_get = self.owner.get
        last_sm = self._last_atomic_sm
        last_get = last_sm.get
        acquire_ownership = self._acquire_ownership
        sequencer = self.sequencer
        seq_get = sequencer.get
        t = floor
        done = floor
        lanes = 0
        local = 0
        remote = 0
        for line, count in pairs:
            if window:
                # DRFrlx: a full MLP window blocks on its oldest atomic.
                while outstanding and outstanding[0] <= t:
                    del outstanding[0]
                if len(outstanding) >= window:
                    t = outstanding.pop(0)
            lanes += count
            holder = owner_get(line)
            if holder == sm:
                # Synchronization locality: the atomic never leaves the
                # core.  Locally-owned atomics flow through the L1's write
                # pipeline (serialized only per line), so they are nearly
                # as cheap as L1 stores.  Peek + LRU-touch in one probe:
                # a live OWNED packed entry has bit 2 set and survives
                # the ALL epoch.
                l1_set = l1_sets[line % l1_nsets]
                entry = l1_set.get(line, -1)
                if entry & 2 and entry >= ae4:
                    del l1_set[line]
                    l1_set[line] = entry  # touch LRU
                    local += count
                    last_sm[line] = sm
                    start = seq_get(line, 0.0)
                    arrival = t + l1_lat
                    if start < arrival:
                        start = arrival
                    sequencer[line] = start + count
                    completion = start + count + l1_lat
                    if completion > done:
                        done = completion
                    if window:
                        insort(outstanding, completion)
                    continue
            if holder is None or last_get(line) == sm:
                # Unowned: register at the requester via the L2 directory.
                # Owned elsewhere but this core also issued the line's
                # previous atomic: the sharing is migratory (e.g. a thread
                # block hammering its own window from a new SM), so
                # ownership transfers.  Either way the RMW then runs
                # locally.
                last_sm[line] = sm
                arrival = acquire_ownership(sm, line, issue)
                if arrival < t:
                    arrival = t
                start = seq_get(line, 0.0)
                if start < arrival:
                    start = arrival
                sequencer[line] = start + count
                completion = start + count + l1_lat
                if completion > done:
                    done = completion
                if window:
                    insort(outstanding, completion)
                continue
            # Forwarded execution at the owner's L1 (contended lines stay
            # put instead of ping-ponging): the RMWs serialize on the line
            # at an L2 atomic unit's rate, and the *message* occupies the
            # owner core's single network ingress/atomic unit — which is
            # what makes scattered single-lane updates prefer GPU
            # coherence's banked L2 units, while batched updates to hot
            # lines amortize the ingress cost.  The owner's L1 keeps the
            # line hot: forwarded atomics refresh it.
            last_sm[line] = sm
            remote += count
            l1s[holder].lookup(line)
            rmw_hold = count * atomic_occ
            ingress_hold = l1_atomic_occ + count
            # Directory forwarding: a tag lookup at the home bank.
            bank = line % l2_banks
            fstart = banks_free[bank]
            if fstart < issue:
                fstart = issue
            banks_free[bank] = fstart + bank_occ
            forwarded = fstart + bank_occ
            unit = l1_atomic_free[holder]
            unit_start = unit if unit > forwarded else forwarded
            l1_atomic_free[holder] = unit_start + ingress_hold
            start = seq_get(line, 0.0)
            if unit_start > start:
                start = unit_start
            if t > start:
                start = t
            sequencer[line] = start + rmw_hold
            completion = (start + rmw_hold
                          + rl1_min + abs(sm - holder) % rl1_span1)
            if completion > done:
                done = completion
            if window:
                insort(outstanding, completion)
        stats = self.stats
        stats.atomics += lanes
        if local:
            stats.atomics_local += local
        if remote:
            stats.atomics_remote_transfer += remote
        return t, done, lanes
