"""Unit tests for push/pull/dynamic trace realization."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import (
    KERNELS,
    DynamicPhase,
    EdgePhase,
    TraceBuilder,
    VertexPhase,
)
from repro.sim import SystemConfig
from repro.sim.trace import (
    OP_ACQUIRE,
    OP_ATOMIC,
    OP_LOAD,
    OP_RELEASE,
    OP_STORE,
)


DIGESTS = Path(__file__).parent / "data" / "trace_digests.json"


@pytest.fixture
def cfg():
    return SystemConfig(num_sms=2, tb_size=64, l1_bytes=4096,
                        l2_bytes=64 * 1024)


def ops_of_kind(trace, opcode):
    return [op for tb in trace.blocks for w in tb for op in w
            if op[0] == opcode]


def flat_warps(trace):
    return [w for tb in trace.blocks for w in tb]


class TestStructure:
    def test_block_and_warp_partitioning(self, small_random, cfg):
        builder = TraceBuilder(small_random, cfg)
        trace = builder.realize(EdgePhase(name="p"), "push")
        expected_blocks = -(-small_random.num_vertices // cfg.tb_size)
        assert trace.num_blocks == expected_blocks
        total_warps = sum(len(tb) for tb in trace.blocks)
        assert total_warps == -(-small_random.num_vertices // cfg.warp_size)

    def test_every_warp_bracketed_by_sync(self, small_random, cfg):
        builder = TraceBuilder(small_random, cfg)
        trace = builder.realize(EdgePhase(name="p"), "push")
        for warp in flat_warps(trace):
            assert warp[0][0] == OP_ACQUIRE
            assert warp[-1][0] == OP_RELEASE

    def test_unknown_direction_rejected(self, small_random, cfg):
        builder = TraceBuilder(small_random, cfg)
        with pytest.raises(ValueError, match="direction"):
            builder.realize(EdgePhase(name="p"), "sideways")

    def test_unknown_phase_rejected(self, small_random, cfg):
        builder = TraceBuilder(small_random, cfg)
        with pytest.raises(TypeError, match="phase"):
            builder.realize(object(), "push")


class TestPushRealization:
    def test_atomics_present(self, small_random, cfg):
        trace = TraceBuilder(small_random, cfg).realize(
            EdgePhase(name="p"), "push"
        )
        atomics = ops_of_kind(trace, OP_ATOMIC)
        total = sum(c for op in atomics for _, c in op[1])
        assert total == small_random.num_edges

    def test_no_stores(self, small_random, cfg):
        trace = TraceBuilder(small_random, cfg).realize(
            EdgePhase(name="p"), "push"
        )
        assert not ops_of_kind(trace, OP_STORE)

    def test_source_mask_elides_edges(self, small_random, cfg):
        n = small_random.num_vertices
        mask = np.zeros(n, dtype=bool)
        mask[: n // 4] = True
        full = TraceBuilder(small_random, cfg).realize(
            EdgePhase(name="p"), "push"
        )
        masked = TraceBuilder(small_random, cfg).realize(
            EdgePhase(name="p", source_active=mask), "push"
        )

        def atomic_count(trace):
            return sum(c for op in ops_of_kind(trace, OP_ATOMIC)
                       for _, c in op[1])

        assert atomic_count(masked) < atomic_count(full)

    def test_multiple_update_arrays_multiply_atomics(self, small_random, cfg):
        one = TraceBuilder(small_random, cfg).realize(
            EdgePhase(name="p", update_arrays=("a",)), "push"
        )
        two = TraceBuilder(small_random, cfg).realize(
            EdgePhase(name="p", update_arrays=("a", "b")), "push"
        )
        assert (len(ops_of_kind(two, OP_ATOMIC))
                == 2 * len(ops_of_kind(one, OP_ATOMIC)))

    def test_needs_value_propagates(self, small_random, cfg):
        trace = TraceBuilder(small_random, cfg).realize(
            EdgePhase(name="p", atomic_needs_value=True), "push"
        )
        assert all(op[2] for op in ops_of_kind(trace, OP_ATOMIC))

    def test_target_pred_check_adds_loads(self, small_random, cfg):
        n = small_random.num_vertices
        mask = np.ones(n, dtype=bool)
        checked = TraceBuilder(small_random, cfg).realize(
            EdgePhase(name="p", target_active=mask,
                      check_target_pred_in_push=True), "push"
        )
        unchecked = TraceBuilder(small_random, cfg).realize(
            EdgePhase(name="p", target_active=mask,
                      check_target_pred_in_push=False), "push"
        )
        assert (len(ops_of_kind(checked, OP_LOAD))
                > len(ops_of_kind(unchecked, OP_LOAD)))


class TestPullRealization:
    def test_no_atomics(self, small_random, cfg):
        trace = TraceBuilder(small_random, cfg).realize(
            EdgePhase(name="p"), "pull"
        )
        assert not ops_of_kind(trace, OP_ATOMIC)

    def test_one_store_per_active_warp(self, small_random, cfg):
        trace = TraceBuilder(small_random, cfg).realize(
            EdgePhase(name="p"), "pull"
        )
        stores = ops_of_kind(trace, OP_STORE)
        warps = -(-small_random.num_vertices // cfg.warp_size)
        assert len(stores) == warps

    def test_source_arrays_loaded_per_round(self, small_random, cfg):
        bare = TraceBuilder(small_random, cfg).realize(
            EdgePhase(name="p"), "pull"
        )
        heavy = TraceBuilder(small_random, cfg).realize(
            EdgePhase(name="p", source_arrays=("x", "y")), "pull"
        )
        assert (len(ops_of_kind(heavy, OP_LOAD))
                > len(ops_of_kind(bare, OP_LOAD)))

    def test_target_mask_elides_work(self, small_random, cfg):
        n = small_random.num_vertices
        mask = np.zeros(n, dtype=bool)  # nothing active
        trace = TraceBuilder(small_random, cfg).realize(
            EdgePhase(name="p", target_active=mask), "pull"
        )
        # Only the bookkeeping loads remain: no stores at all.
        assert not ops_of_kind(trace, OP_STORE)


class TestVertexRealization:
    def test_reads_computes_writes(self, small_random, cfg):
        trace = TraceBuilder(small_random, cfg).realize(
            VertexPhase(name="v", read_arrays=("a",), write_arrays=("b",)),
            "push",
        )
        assert ops_of_kind(trace, OP_LOAD)
        assert ops_of_kind(trace, OP_STORE)

    def test_direction_irrelevant(self, small_random, cfg):
        phase = VertexPhase(name="v", read_arrays=("a",))
        push = TraceBuilder(small_random, cfg).realize(phase, "push")
        pull = TraceBuilder(small_random, cfg).realize(phase, "pull")
        assert [len(w) for tb in push.blocks for w in tb] == \
               [len(w) for tb in pull.blocks for w in tb]


class TestDynamicRealization:
    def test_chains_become_loads(self, small_random, cfg):
        n = small_random.num_vertices
        offsets = np.arange(n + 1, dtype=np.int64)  # one read per vertex
        values = np.arange(n, dtype=np.int64)
        trace = TraceBuilder(small_random, cfg).realize(
            DynamicPhase(name="d", array="parent",
                         chain_offsets=offsets, chain_values=values),
            "push",
        )
        assert ops_of_kind(trace, OP_LOAD)

    def test_cas_targets_become_blocking_atomics(self, small_random, cfg):
        n = small_random.num_vertices
        cas = np.full(n, -1, dtype=np.int64)
        cas[0] = 5
        trace = TraceBuilder(small_random, cfg).realize(
            DynamicPhase(name="d", array="parent",
                         chain_offsets=np.zeros(n + 1, np.int64),
                         chain_values=np.zeros(0, np.int64),
                         cas_targets=cas),
            "push",
        )
        atomics = ops_of_kind(trace, OP_ATOMIC)
        assert len(atomics) == 1
        assert atomics[0][2] is True  # needs_value

    def test_store_self(self, small_random, cfg):
        n = small_random.num_vertices
        trace = TraceBuilder(small_random, cfg).realize(
            DynamicPhase(name="d", array="parent",
                         chain_offsets=np.zeros(n + 1, np.int64),
                         chain_values=np.zeros(0, np.int64),
                         store_self=True),
            "push",
        )
        stores = ops_of_kind(trace, OP_STORE)
        assert len(stores) == -(-n // cfg.warp_size)


class TestTraceDigests:
    """Every app's realized traces match the committed digests exactly.

    Regenerate with ``PYTHONPATH=src python tools/make_golden_fixture.py``
    only when a trace change is intentional.
    """

    PAYLOAD = json.loads(DIGESTS.read_text())

    def test_every_registered_app_is_pinned(self, fixture_tool):
        pinned = {key.split("/")[0] for key in self.PAYLOAD["workloads"]}
        assert pinned == set(KERNELS)
        assert self.PAYLOAD["max_iters"] == fixture_tool.MAX_ITERS

    @pytest.mark.parametrize("key", sorted(PAYLOAD["workloads"]))
    def test_traces_match_fixture(self, fixture_tool, key):
        app, rest = key.split("/")
        dataset, scale = rest.split("@")
        got = fixture_tool.trace_digests(app, dataset, int(scale))
        assert got == self.PAYLOAD["workloads"][key], \
            f"{key} realized different traces than the committed digests"
