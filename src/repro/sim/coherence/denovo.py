"""DeNovo coherence (Section II-B).

* Written data and atomics obtain **ownership** (registration) at the L1.
  Owned lines survive acquires and are never flushed at releases.
* Atomics to locally-owned lines execute at the L1 with no L2 traffic at
  all — synchronization locality turns pushed updates into core-local
  work.  Non-owned atomics pay an ownership transfer: from the current
  owner's remote L1 (ping-pong) or from the L2 directory.
* Loads of remotely-owned lines are serviced by the owner's L1.
* Acquires self-invalidate only the VALID (non-owned) lines.
"""

from __future__ import annotations

from bisect import insort

from ..cache import OWNED, VALID
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

        The directory forward, the home-bank L2 service and the OWNED L1
        install are inlined: this runs once per ownership registration
        and is the hottest call in the DeNovo atomic paths.  The shared L2 is
        never epoch-invalidated, so its liveness check collapses to a
        single packed-entry compare (as in ``load``).
        """
        stats = self.stats
        banks_free = self._l2_bank_free
        bank_occ = self.config.l2_bank_occupancy
        bank = line % self._l2_banks
        owner = self.owner
        holder = owner.get(line)
        if holder is not None and holder != sm:
            stats.atomics_remote_transfer += 1
            self.l1s[holder].invalidate(line)
            # Directory forwarding: a tag lookup at the home bank.
            start = banks_free[bank]
            if start < now:
                start = now
            banks_free[bank] = start + bank_occ
            ready = (start + bank_occ
                     + self._rl1_min + abs(sm - holder) % self._rl1_span1)
        else:
            # L2 service at the home bank, held for one bank occupancy.
            bstart = banks_free[bank]
            if bstart < now:
                bstart = now
            banks_free[bank] = bstart + bank_occ
            l2 = self.l2
            l2_lat = self._l2_lat_min + (bank + sm) % self._l2_span1
            l2_set = l2._sets[line % l2.num_sets]
            l2_live_min = l2._valid_epoch << 2
            l2_entry = l2_set.pop(line, -1)
            if l2_entry >= l2_live_min:
                l2_set[line] = l2_entry
                stats.l2_hits += 1
                ready = bstart + bank_occ + l2_lat
            else:
                stats.l2_misses += 1
                if len(l2_set) >= l2.assoc:
                    if l2_live_min:
                        l2.install(line, VALID)
                    else:
                        del l2_set[next(iter(l2_set))]
                        l2_set[line] = l2_live_min | VALID
                else:
                    l2_set[line] = l2_live_min | VALID
                channels_free = self._mem_channel_free
                channel = line % self._mem_channels
                mem_start = channels_free[channel]
                issue = bstart + bank_occ
                if mem_start < issue:
                    mem_start = issue
                mem_occ = self._mem_occupancy
                channels_free[channel] = mem_start + mem_occ
                ready = (mem_start + mem_occ
                         + self._mem_lat_min + (bank + sm) % self._mem_span1
                         + l2_lat)
        stats.ownership_registrations += 1
        owner[line] = sm
        # L1 install of the line as OWNED (SetAssocCache.install inlined).
        l1 = self.l1s[sm]
        cache_set = l1._sets[line % l1.num_sets]
        ve = l1._valid_epoch
        ae = l1._all_epoch
        packed = ((ve if ve > ae else ae) << 2) | OWNED
        if line in cache_set:
            del cache_set[line]
        elif len(cache_set) >= l1.assoc:
            victim = None
            if ve or ae:
                ve4 = ve << 2
                ae4 = ae << 2
                for cand, entry in cache_set.items():
                    if entry < ae4 or (entry & 3 == VALID
                                       and entry < ve4):
                        victim = cand
                        break
            if victim is None:
                victim = next(iter(cache_set))
                v_entry = cache_set[victim]
                del cache_set[victim]
                if v_entry & 3 == OWNED:
                    # Owned-victim writeback returns registration to
                    # the L2: data + directory update at its home bank.
                    owner.pop(victim, None)
                    vbank = victim % self._l2_banks
                    vstart = banks_free[vbank]
                    if vstart < now:
                        vstart = now
                    banks_free[vbank] = vstart + bank_occ
                    stats.extra["owned_writebacks"] = (
                        stats.extra.get("owned_writebacks", 0) + 1)
            else:
                del cache_set[victim]
        cache_set[line] = packed
        return ready

    def load(self, sm: int, lines: tuple, now: float) -> float:
        # Hit path inlined against the packed cache entries exactly as in
        # GPUCoherence.load, and the miss path inlines the home-bank L2
        # service, directory forwarding, and the VALID L1 refill.  A
        # DeNovo L1 can hold OWNED lines, so an evicted live OWNED victim
        # books its ownership writeback, as in `_acquire_ownership`.
        # Epochs are loop invariants: nothing below invalidates this L1
        # or the shared L2.
        l1 = self.l1s[sm]
        l1_sets = l1._sets
        l1_nsets = l1.num_sets
        l1_assoc = l1.assoc
        # ``invalidate_valid``/``invalidate_all`` keep valid_epoch >=
        # all_epoch, so a packed entry is live iff it survives the VALID
        # epoch (any state), or it is OWNED (bit 2) and survives the ALL
        # epoch — two integer compares on the packed value.
        ve4 = l1._valid_epoch << 2
        ae4 = l1._all_epoch << 2
        packed_valid = ve4 | VALID
        cfg = self.config
        l1_lat = cfg.l1_hit_latency
        l2_lat_min = cfg.l2_latency_min
        bank_occ = cfg.l2_bank_occupancy
        rl1_min = self._rl1_min
        rl1_span1 = self._rl1_span1
        l2 = self.l2
        l2_sets = l2._sets
        l2_nsets = l2.num_sets
        l2_assoc = l2.assoc
        l2_live_min = l2._valid_epoch << 2
        l2_packed_valid = l2_live_min | VALID
        l2_install = l2.install
        l2_banks = self._l2_banks
        l2_span1 = self._l2_span1
        banks_free = self._l2_bank_free
        mem_channels = self._mem_channels
        mem_lat_min = self._mem_lat_min
        mem_span1 = self._mem_span1
        mem_occ = self._mem_occupancy
        channels_free = self._mem_channel_free
        owner = self.owner
        owner_get = owner.get
        owner_pop = owner.pop
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
                # Directory forwarding: a tag lookup at the home bank.
                bank = line % l2_banks
                bstart = banks_free[bank]
                if bstart < start:
                    bstart = start
                banks_free[bank] = bstart + bank_occ
                done = (bstart + bank_occ
                        + rl1_min + abs(sm - holder) % rl1_span1 + l1_lat)
            else:
                # --- L2 service at the line's home bank ---
                bank = line % l2_banks
                bstart = banks_free[bank]
                if bstart < start:
                    bstart = start
                banks_free[bank] = bstart + bank_occ
                l2_lat = l2_lat_min + (bank + sm) % l2_span1
                l2_set = l2_sets[line % l2_nsets]
                l2_entry = l2_set.pop(line, -1)
                if l2_entry >= l2_live_min:
                    l2_set[line] = l2_entry
                    l2_hits += 1
                    done = bstart + bank_occ + l2_lat + l1_lat
                else:
                    l2_misses += 1
                    if len(l2_set) >= l2_assoc:
                        if l2_live_min:
                            l2_install(line, VALID)
                        else:
                            del l2_set[next(iter(l2_set))]
                            l2_set[line] = l2_packed_valid
                    else:
                        l2_set[line] = l2_packed_valid
                    channel = line % mem_channels
                    mstart = channels_free[channel]
                    issue = bstart + bank_occ
                    if mstart < issue:
                        mstart = issue
                    channels_free[channel] = mstart + mem_occ
                    done = (mstart + mem_occ
                            + mem_lat_min + (bank + sm) % mem_span1
                            + l2_lat + l1_lat)
            # --- L1 refill as VALID (SetAssocCache.install inlined) ---
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
                    v_entry = cache_set[victim]
                    del cache_set[victim]
                    if v_entry & 3 == OWNED:
                        # Ownership writeback: registration returns to
                        # the L2 and occupies the victim's home bank.
                        owner_pop(victim, None)
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
                extra.get("owned_writebacks", 0) + owned_wb
            )
        return worst

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
