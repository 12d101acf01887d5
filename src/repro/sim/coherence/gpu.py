"""Conventional GPU coherence (Section II-B).

* Loads fill VALID lines into the L1 (the shared ``MemorySystem.load``:
  with no owners, every miss is served by the home L2 bank).
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

from .base import MemorySystem

__all__ = ["GPUCoherence"]


class GPUCoherence(MemorySystem):
    """Write-through GPU coherence with L2-side atomics."""

    name = "gpu"

    def store(self, sm: int, lines: tuple, now: float) -> tuple[float, float]:
        # Write-through: each line holds a store-buffer entry from when it
        # is accepted until the home L2 bank has taken it.
        bank_occ = self.config.l2_bank_occupancy
        hold = self._l2_lat_min + bank_occ
        buffers = self._store_buffers[sm]
        buf_free = buffers.free_at
        buf_n = buffers.n
        l2_service = self._l2_service
        accept = now
        drain = now
        for line in lines:
            i = buffers.idx
            buffers.idx = (i + 1) % buf_n
            start = buf_free[i]
            if start < now:
                start = now
            buf_free[i] = start + hold
            if start > accept:
                accept = start
            done = l2_service(sm, line, start, bank_occ)
            if done > drain:
                drain = done
        self.stats.stores += len(lines)
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
        # ``t`` and for prior RMWs to the same line.
        atomic_occ = self.config.atomic_occupancy
        l2_banks = self._l2_banks
        l2_span1 = self._l2_span1
        l2_lat_min = self._l2_lat_min
        l2_service = self._l2_service
        sequencer = self.sequencer
        seq_get = sequencer.get
        t = floor
        done = floor
        lanes = 0
        for line, count in pairs:
            if window:
                # DRFrlx: a full MLP window blocks on its oldest atomic.
                while outstanding and outstanding[0] <= t:
                    del outstanding[0]
                if len(outstanding) >= window:
                    t = outstanding.pop(0)
            lanes += count
            hold = count * atomic_occ
            service_ready = l2_service(sm, line, issue, hold)
            # When the bank's RMW slot begins (fills overlap approximately).
            latency = l2_lat_min + (line % l2_banks + sm) % l2_span1
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
        self.stats.atomics += lanes
        return t, done, lanes
