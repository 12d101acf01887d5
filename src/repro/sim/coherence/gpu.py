"""Conventional GPU coherence (Section II-B).

* Loads fill VALID lines into the L1.
* Stores are write-through, no-allocate: they occupy a store buffer entry
  until acknowledged by the L2.
* All atomics execute at the home L2 bank (bypassing the L1), serialize
  per line, and occupy the bank's atomic unit — so every pushed update is
  L2 traffic, which is exactly why L2-side atomics throttle push kernels
  on high-reuse inputs.
* Acquires self-invalidate the entire L1; releases drain the store buffer
  (tracked by the engine via store drain times).
"""

from __future__ import annotations

from bisect import insort

from ..cache import VALID
from .base import MemorySystem

__all__ = ["GPUCoherence"]


class GPUCoherence(MemorySystem):
    """Write-through GPU coherence with L2-side atomics."""

    name = "gpu"

    def load(self, sm: int, lines: tuple, now: float) -> float:
        # The per-line L1 lookup/refill below is the simulator's hottest
        # loop, so the cache's packed-entry protocol (see sim/cache.py)
        # and the home-bank L2 service (bank occupancy, L2 lookup and
        # VALID fill, DRAM channel occupancy on a miss) are inlined here.
        # GPU coherence only ever holds VALID lines in an L1, so the L1
        # refill never evicts an owned line and needs no writeback path.
        # Epochs are loop invariants: nothing below invalidates this L1
        # or the shared L2.
        l1 = self.l1s[sm]
        l1_sets = l1._sets
        l1_nsets = l1.num_sets
        l1_assoc = l1.assoc
        # ``invalidate_valid``/``invalidate_all`` keep valid_epoch >=
        # all_epoch, and a GPU L1 holds only VALID entries, so liveness
        # of a packed entry ``(epoch << 2) | VALID`` collapses to a
        # single integer compare against ``valid_epoch << 2``.
        live_min = l1._valid_epoch << 2
        packed_valid = live_min | VALID
        cfg = self.config
        l1_lat = cfg.l1_hit_latency
        l2_lat_min = cfg.l2_latency_min
        bank_occ = cfg.l2_bank_occupancy
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
        mshrs = self._mshrs[sm]
        mshr_free = mshrs.free_at
        mshr_n = mshrs.n
        worst = now + l1_lat
        hits = 0
        misses = 0
        l2_hits = 0
        l2_misses = 0
        for line in lines:
            cache_set = l1_sets[line % l1_nsets]
            # -1 sentinel: real entries are >= 0 and live_min >= 0, so a
            # missing line fails the single liveness compare directly.
            entry = cache_set.pop(line, -1)
            if entry >= live_min:
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
            # --- L1 refill (inlined install; always VALID) ---
            if len(cache_set) >= l1_assoc:
                victim = None
                if live_min:
                    for cand, cand_entry in cache_set.items():
                        if cand_entry < live_min:
                            victim = cand
                            break
                if victim is None:
                    victim = next(iter(cache_set))
                del cache_set[victim]
            cache_set[line] = packed_valid
            if done > worst:
                worst = done
        stats = self.stats
        stats.l1_hits += hits
        stats.l1_misses += misses
        stats.l2_hits += l2_hits
        stats.l2_misses += l2_misses
        return worst

    def store(self, sm: int, lines: tuple, now: float) -> tuple[float, float]:
        # Write-through per-line drain with the L2 service inlined as in
        # `load` (pull kernels store every round, so this loop is hot).
        cfg = self.config
        buffers = self._store_buffers[sm]
        buf_free = buffers.free_at
        buf_n = buffers.n
        hold = cfg.l2_latency_min + cfg.l2_bank_occupancy
        bank_occ = cfg.l2_bank_occupancy
        l2_banks = self._l2_banks
        l2_span1 = self._l2_span1
        l2_lat_min = self._l2_lat_min
        banks_free = self._l2_bank_free
        l2 = self.l2
        l2_sets = l2._sets
        l2_nsets = l2.num_sets
        l2_assoc = l2.assoc
        l2_live_min = l2._valid_epoch << 2
        l2_packed_valid = l2_live_min | VALID
        l2_install = l2.install
        mem_channels = self._mem_channels
        mem_lat_min = self._mem_lat_min
        mem_span1 = self._mem_span1
        mem_occ = self._mem_occupancy
        channels_free = self._mem_channel_free
        accept = now
        drain = now
        l2_hits = 0
        l2_misses = 0
        for line in lines:
            i = buffers.idx
            buffers.idx = (i + 1) % buf_n
            start = buf_free[i]
            if start < now:
                start = now
            buf_free[i] = start + hold
            if start > accept:
                accept = start
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
                done = bstart + bank_occ + l2_lat
            else:
                l2_misses += 1
                if len(l2_set) >= l2_assoc:
                    if l2_live_min:
                        l2_install(line, VALID)
                    else:
                        del l2_set[next(iter(l2_set))]
                        l2_set[line] = VALID
                else:
                    l2_set[line] = l2_packed_valid
                channel = line % mem_channels
                mstart = channels_free[channel]
                issue = bstart + bank_occ
                if mstart < issue:
                    mstart = issue
                channels_free[channel] = mstart + mem_occ
                done = (mstart + mem_occ + mem_lat_min
                        + (bank + sm) % mem_span1 + l2_lat)
            if done > drain:
                drain = done
        stats = self.stats
        stats.stores += len(lines)
        stats.l2_hits += l2_hits
        stats.l2_misses += l2_misses
        return accept, drain

    def acquire(self, sm: int) -> int:
        self.stats.acquires += 1
        self.l1s[sm].invalidate_all()
        return self.config.l1_hit_latency

    def atomics(
        self, sm: int, pairs: tuple, floor: float, issue: float,
        outstanding: list | None = None, window: int = 0,
    ) -> tuple[float, float, int]:
        # Every atomic executes at the line's home L2 bank.  Bank
        # occupancy and a possible memory fill are booked at ``issue``
        # (requests travel immediately; same-line fills coalesce in the
        # L2 MSHRs); the RMW itself waits for the program-order floor
        # ``t`` and for prior RMWs to the same line.  The L2 lookup and
        # fill are inlined as in `load` (atomics are the push hot path).
        atomic_occ = self.config.atomic_occupancy
        l2_banks = self._l2_banks
        l2_span1 = self._l2_span1
        l2_lat_min = self._l2_lat_min
        banks_free = self._l2_bank_free
        l2 = self.l2
        l2_sets = l2._sets
        l2_nsets = l2.num_sets
        l2_assoc = l2.assoc
        l2_live_min = l2._valid_epoch << 2
        l2_packed_valid = l2_live_min | VALID
        l2_install = l2.install
        mem_channels = self._mem_channels
        mem_lat_min = self._mem_lat_min
        mem_span1 = self._mem_span1
        mem_occ = self._mem_occupancy
        channels_free = self._mem_channel_free
        sequencer = self.sequencer
        seq_get = sequencer.get
        t = floor
        done = floor
        lanes = 0
        l2_hits = 0
        l2_misses = 0
        for line, count in pairs:
            if window:
                # DRFrlx: a full MLP window blocks on its oldest atomic.
                while outstanding and outstanding[0] <= t:
                    del outstanding[0]
                if len(outstanding) >= window:
                    t = outstanding.pop(0)
            lanes += count
            hold = count * atomic_occ
            bank = line % l2_banks
            bstart = banks_free[bank]
            if bstart < issue:
                bstart = issue
            banks_free[bank] = bstart + hold
            latency = l2_lat_min + (bank + sm) % l2_span1
            l2_set = l2_sets[line % l2_nsets]
            l2_entry = l2_set.pop(line, -1)
            if l2_entry >= l2_live_min:
                l2_set[line] = l2_entry
                l2_hits += 1
                service_ready = bstart + hold + latency
            else:
                l2_misses += 1
                if len(l2_set) >= l2_assoc:
                    if l2_live_min:
                        l2_install(line, VALID)
                    else:
                        del l2_set[next(iter(l2_set))]
                        l2_set[line] = VALID
                else:
                    l2_set[line] = l2_packed_valid
                channel = line % mem_channels
                mstart = channels_free[channel]
                mem_issue = bstart + hold
                if mstart < mem_issue:
                    mstart = mem_issue
                channels_free[channel] = mstart + mem_occ
                service_ready = (mstart + mem_occ + mem_lat_min
                                 + (bank + sm) % mem_span1 + latency)
            # When the bank's RMW slot begins (fills overlap approximately).
            start = service_ready - latency - hold
            seq = seq_get(line, 0.0)
            if seq > start:
                start = seq
            if t > start:
                start = t
            sequencer[line] = start + hold
            completion = start + hold + latency
            if completion > done:
                done = completion
            if window:
                insort(outstanding, completion)
        stats = self.stats
        stats.atomics += lanes
        stats.l2_hits += l2_hits
        stats.l2_misses += l2_misses
        return t, done, lanes
