"""Unit tests for trace ops, the address map, and stall accounting."""

import pytest

from repro.sim import (
    CATEGORIES,
    AddressMap,
    KernelTrace,
    StallBreakdown,
    acquire,
    atomic,
    barrier,
    compute,
    load,
    op_count,
    release,
    store,
)
from repro.sim.trace import (
    OP_ACQUIRE,
    OP_ATOMIC,
    OP_BARRIER,
    OP_COMPUTE,
    OP_LOAD,
    OP_RELEASE,
    OP_STORE,
)


class TestOps:
    def test_opcodes(self):
        assert compute(3) == (OP_COMPUTE, 3)
        assert load([1, 2]) == (OP_LOAD, (1, 2))
        assert store([4]) == (OP_STORE, (4,))
        assert atomic([(7, 2)]) == (OP_ATOMIC, ((7, 2),), False)
        assert atomic([(7, 1)], needs_value=True)[2] is True
        assert acquire() == (OP_ACQUIRE,)
        assert release() == (OP_RELEASE,)
        assert barrier() == (OP_BARRIER,)

    def test_empty_load_rejected(self):
        with pytest.raises(ValueError):
            load([])

    def test_zero_compute_rejected(self):
        with pytest.raises(ValueError):
            compute(0)

    def test_nonpositive_atomic_count_rejected(self):
        with pytest.raises(ValueError):
            atomic([(3, 0)])

    def test_kernel_trace_counts(self):
        k = KernelTrace("k")
        k.add_block([[acquire(), release()], [acquire(), release()]])
        k.add_block([[acquire(), compute(1), release()]])
        assert k.num_blocks == 2
        assert k.num_warps == 3
        assert op_count(k) == 7


class TestAddressMap:
    def test_distinct_regions_do_not_collide(self):
        amap = AddressMap()
        a, b = amap.region_base("a"), amap.region_base("b")
        assert a != b
        assert amap.region_base("a") == a  # stable after first touch

    def test_elements_share_lines(self):
        amap = AddressMap(line_bytes=64, element_bytes=4)
        assert amap.elements_per_line == 16

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            AddressMap(line_bytes=10, element_bytes=4)


class TestStallBreakdown:
    def test_addition(self):
        a = StallBreakdown(busy=1, data=2)
        b = StallBreakdown(busy=3, sync=4)
        c = a + b
        assert c.busy == 4 and c.data == 2 and c.sync == 4

    def test_inplace_addition(self):
        a = StallBreakdown(busy=1)
        a += StallBreakdown(idle=2)
        assert a.busy == 1 and a.idle == 2

    def test_fractions_sum_to_one(self):
        b = StallBreakdown(busy=1, comp=2, data=3, sync=4, idle=0)
        assert sum(b.fractions().values()) == pytest.approx(1.0)

    def test_empty_fractions(self):
        assert all(v == 0 for v in StallBreakdown().fractions().values())

    def test_categories_constant(self):
        assert CATEGORIES == ("busy", "comp", "data", "sync", "idle")

    def test_add_by_name(self):
        b = StallBreakdown()
        b.add("sync", 5.0)
        assert b.sync == 5.0

    def test_add_unknown_category_rejected(self):
        # A typo'd category must fail loudly, not silently create an
        # attribute that total/fractions/to_dict never see.
        b = StallBreakdown(busy=1.0)
        with pytest.raises(ValueError, match="unknown stall category"):
            b.add("dta", 5.0)
        assert b.total == 1.0
        assert not hasattr(b, "dta")
