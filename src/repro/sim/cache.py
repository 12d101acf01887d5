"""Set-associative LRU cache model with DeNovo ownership state.

Lines carry one of two states: ``VALID`` (a self-invalidatable copy) or
``OWNED`` (a DeNovo-registered line that survives acquires and is never
flushed).  GPU coherence only ever installs ``VALID`` lines; DeNovo
installs ``OWNED`` for written/atomic data.

Self-invalidation is **epoch-based** so that the per-atomic invalidations
of DRF0 cost O(1): every entry records the epoch it was installed in, and
``invalidate_valid``/``invalidate_all`` simply bump the cache's epoch.
VALID entries from older epochs count as misses (and are dropped when
touched); OWNED entries are immune to the VALID epoch.

Each set is a Python dict used as an LRU (insertion order; touching a
line deletes and reinserts it).  Entries are packed ints —
``(epoch << 2) | state`` — and the liveness check is inlined into
``lookup``/``install``: the engine performs millions of lookups and an
install scans up to ``assoc`` candidate victims, so a per-entry method
call (the old ``_live_state`` helper) dominated simulation time.
"""

from __future__ import annotations

__all__ = ["VALID", "OWNED", "SetAssocCache"]

VALID = 1
OWNED = 2

_STATE_MASK = 3
_EPOCH_SHIFT = 2


class SetAssocCache:
    """A set-associative, LRU-replacement cache keyed by line id."""

    __slots__ = ("assoc", "num_sets", "num_lines", "_sets",
                 "_valid_epoch", "_all_epoch")

    def __init__(self, num_lines: int, assoc: int) -> None:
        if num_lines <= 0 or assoc <= 0:
            raise ValueError("num_lines and assoc must be positive")
        if num_lines % assoc != 0:
            num_lines = max(assoc, (num_lines // assoc) * assoc)
        self.assoc = assoc
        self.num_sets = max(1, num_lines // assoc)
        self.num_lines = self.num_sets * assoc
        # entry: line -> (epoch << 2) | state
        self._sets: list[dict[int, int]] = [
            dict() for _ in range(self.num_sets)
        ]
        self._valid_epoch = 0
        self._all_epoch = 0

    def _live_state(self, entry: int) -> int | None:
        """Live state of a packed entry, or None when epoch-invalidated."""
        epoch = entry >> _EPOCH_SHIFT
        state = entry & _STATE_MASK
        if epoch < self._all_epoch:
            return None
        if state == VALID and epoch < self._valid_epoch:
            return None
        return state

    def lookup(self, line: int) -> int | None:
        """Return the line's live state (touching LRU) or None on miss."""
        cache_set = self._sets[line % self.num_sets]
        entry = cache_set.pop(line, None)
        if entry is None:
            return None
        epoch = entry >> _EPOCH_SHIFT
        state = entry & _STATE_MASK
        if epoch < self._all_epoch or (
            state == VALID and epoch < self._valid_epoch
        ):
            return None
        cache_set[line] = entry
        return state

    def peek(self, line: int) -> int | None:
        """Return the line's live state without touching LRU order."""
        entry = self._sets[line % self.num_sets].get(line)
        if entry is None:
            return None
        epoch = entry >> _EPOCH_SHIFT
        state = entry & _STATE_MASK
        if epoch < self._all_epoch or (
            state == VALID and epoch < self._valid_epoch
        ):
            return None
        return state

    def install(self, line: int, state: int) -> tuple[int, int] | None:
        """Insert/overwrite a line; return an evicted live (line, state)."""
        if state != VALID and state != OWNED:
            raise ValueError("state must be VALID or OWNED")
        cache_set = self._sets[line % self.num_sets]
        valid_epoch = self._valid_epoch
        all_epoch = self._all_epoch
        epoch = valid_epoch if valid_epoch > all_epoch else all_epoch
        packed = (epoch << _EPOCH_SHIFT) | state
        if line in cache_set:
            del cache_set[line]
            cache_set[line] = packed
            return None
        evicted = None
        if len(cache_set) >= self.assoc:
            # Prefer evicting a stale (epoch-invalidated) entry.  A cache
            # that was never epoch-invalidated (epochs still 0 — notably
            # the shared L2, which no protocol invalidates) cannot hold
            # stale entries, so the scan is skipped.
            victim = None
            if valid_epoch or all_epoch:
                for cand, entry in cache_set.items():
                    cand_epoch = entry >> _EPOCH_SHIFT
                    if cand_epoch < all_epoch or (
                        (entry & _STATE_MASK) == VALID
                        and cand_epoch < valid_epoch
                    ):
                        victim = cand
                        break
            if victim is None:
                victim = next(iter(cache_set))
                # No stale candidate exists, so the LRU victim is live.
                evicted = (victim, cache_set[victim] & _STATE_MASK)
            del cache_set[victim]
        cache_set[line] = packed
        return evicted

    def invalidate(self, line: int) -> None:
        """Drop one line if present."""
        self._sets[line % self.num_sets].pop(line, None)

    def invalidate_valid(self) -> None:
        """Self-invalidate every VALID line (DeNovo acquire); keep OWNED."""
        self._valid_epoch = max(self._valid_epoch, self._all_epoch) + 1

    def invalidate_all(self) -> None:
        """Self-invalidate the whole cache (GPU-coherence acquire)."""
        self._all_epoch = max(self._valid_epoch, self._all_epoch) + 1
        self._valid_epoch = self._all_epoch

    def live_lines(self) -> int:
        """Count of live (non-stale) lines; O(capacity), for tests."""
        return sum(
            1
            for cache_set in self._sets
            for entry in cache_set.values()
            if self._live_state(entry) is not None
        )

    def __len__(self) -> int:
        return self.live_lines()

    def __contains__(self, line: int) -> bool:
        return self.peek(line) is not None
