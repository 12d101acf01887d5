"""Unit tests for the set-associative cache model."""

import pytest

from repro.sim import OWNED, VALID, SetAssocCache
from tests.conftest import owned_lines


class TestBasics:
    def test_miss_then_hit(self):
        c = SetAssocCache(16, 4)
        assert c.lookup(5) is None
        c.install(5, VALID)
        assert c.lookup(5) == VALID

    def test_peek_does_not_touch(self):
        c = SetAssocCache(8, 2)  # 4 sets
        c.install(0, VALID)
        c.install(4, VALID)  # same set (line % 4 == 0)
        c.peek(0)
        c.install(8, VALID)  # evicts LRU = line 0 (peek didn't refresh it)
        assert c.peek(0) is None
        assert c.peek(4) == VALID

    def test_lookup_refreshes_lru(self):
        c = SetAssocCache(8, 2)
        c.install(0, VALID)
        c.install(4, VALID)
        c.lookup(0)  # 0 becomes MRU
        c.install(8, VALID)  # evicts 4
        assert c.peek(0) == VALID
        assert c.peek(4) is None

    def test_bad_state_rejected(self):
        c = SetAssocCache(8, 2)
        with pytest.raises(ValueError, match="state"):
            c.install(0, 99)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssocCache(0, 4)

    def test_geometry_rounds_to_assoc(self):
        c = SetAssocCache(10, 4)
        assert c.num_lines % c.assoc == 0


class TestEviction:
    def test_eviction_returns_victim(self):
        c = SetAssocCache(2, 2)  # 1 set, 2 ways
        c.install(0, VALID)
        c.install(1, VALID)
        evicted = c.install(2, OWNED)
        assert evicted == (0, VALID)

    def test_owned_eviction_reported(self):
        c = SetAssocCache(2, 2)
        c.install(0, OWNED)
        c.install(1, VALID)
        c.lookup(0)  # 0 MRU
        evicted = c.install(2, VALID)
        assert evicted == (1, VALID)

    def test_overwrite_same_line_no_eviction(self):
        c = SetAssocCache(2, 2)
        c.install(0, VALID)
        assert c.install(0, OWNED) is None
        assert c.peek(0) == OWNED

    def test_stale_entries_evicted_first(self):
        c = SetAssocCache(2, 2)
        c.install(0, VALID)
        c.install(1, OWNED)
        c.invalidate_valid()  # line 0 becomes stale
        evicted = c.install(2, VALID)
        assert evicted is None  # the stale line was the victim
        assert c.peek(1) == OWNED


class TestEpochInvalidation:
    def test_invalidate_all(self):
        c = SetAssocCache(16, 4)
        for line in range(6):
            c.install(line, VALID)
        c.invalidate_all()
        assert all(c.peek(line) is None for line in range(6))

    def test_invalidate_valid_keeps_owned(self):
        c = SetAssocCache(16, 4)
        c.install(0, VALID)
        c.install(1, OWNED)
        c.invalidate_valid()
        assert c.peek(0) is None
        assert c.peek(1) == OWNED

    def test_invalidate_all_kills_owned_too(self):
        c = SetAssocCache(16, 4)
        c.install(1, OWNED)
        c.invalidate_all()
        assert c.peek(1) is None

    def test_reinstall_after_invalidation(self):
        c = SetAssocCache(16, 4)
        c.install(0, VALID)
        c.invalidate_all()
        c.install(0, VALID)
        assert c.lookup(0) == VALID

    def test_repeated_invalidations(self):
        c = SetAssocCache(16, 4)
        for _ in range(5):
            c.install(0, VALID)
            c.invalidate_all()
            assert c.peek(0) is None

    def test_owned_survives_many_valid_epochs(self):
        c = SetAssocCache(16, 4)
        c.install(3, OWNED)
        for _ in range(10):
            c.invalidate_valid()
        assert c.peek(3) == OWNED

    def test_single_line_invalidate(self):
        c = SetAssocCache(16, 4)
        c.install(0, VALID)
        c.install(1, VALID)
        c.invalidate(0)
        assert c.peek(0) is None
        assert c.peek(1) == VALID


class TestIntrospection:
    def test_live_lines(self):
        c = SetAssocCache(16, 4)
        for line in range(5):
            c.install(line, VALID)
        assert c.live_lines() == 5
        c.invalidate_valid()
        assert c.live_lines() == 0

    def test_owned_lines(self):
        c = SetAssocCache(16, 4)
        c.install(0, OWNED)
        c.install(1, VALID)
        c.install(2, OWNED)
        assert sorted(owned_lines(c)) == [0, 2]

    def test_contains(self):
        c = SetAssocCache(16, 4)
        c.install(7, VALID)
        assert 7 in c
        assert 8 not in c
