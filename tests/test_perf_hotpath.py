"""Regression tests for the hot-path overhaul.

The optimizations (interned trace IR, realization memoization, engine
fast paths, per-instruction atomics) must be invisible in the modeled
numbers: this file pins golden equivalence against the committed
fixture, the memoization/interning semantics, and the O(1) trace
counters.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.configs import parse_config
from repro.graph.datasets import load_dataset
from repro.harness.runner import run_workload
from repro.kernels import (
    DynamicPhase,
    EdgePhase,
    TraceBuilder,
    VertexPhase,
)
from repro.sim import KernelTrace, SystemConfig, compute, load
from repro.sim.config import scaled_system
from repro.sim.trace import OpInterner, op_count

FIXTURE = Path(__file__).parent / "data" / "golden_timing.json"


def _golden_workloads():
    payload = json.loads(FIXTURE.read_text())
    return [
        pytest.param(wl, id=f"{wl['app']}-{wl['dataset']}")
        for wl in payload["workloads"]
    ]


class TestGoldenEquivalence:
    """Every configuration must reproduce the committed fixture exactly.

    This is the bit-identity contract of the perf work: cycles, stall
    breakdowns, and memory statistics may not drift by even one ULP.
    """

    @pytest.mark.parametrize("wl", _golden_workloads())
    def test_bit_identical_to_fixture(self, wl):
        graph = load_dataset(wl["dataset"], scale=wl["scale"])
        result = run_workload(
            wl["app"], graph,
            configs=[parse_config(c) for c in wl["configs"]],
            system=scaled_system(wl["scale"]),
            max_iters=wl["max_iters"],
        )
        for code in wl["configs"]:
            assert result.results[code].to_dict() == wl["results"][code], \
                f"{wl['app']}/{wl['dataset']}/{code} drifted from golden"


_CFG = SystemConfig(num_sms=2, tb_size=64, l1_bytes=4096,
                    l2_bytes=64 * 1024)


@pytest.fixture
def cfg():
    return _CFG


class TestRealizationMemo:
    def test_identical_phase_returns_cached_object(self, small_random, cfg):
        builder = TraceBuilder(small_random, cfg)
        phase = EdgePhase(name="p")
        first = builder.realize(phase, "push")
        second = builder.realize(phase, "push")
        assert second is first
        assert builder.memo_hits == 1
        assert builder.memo_misses == 1

    def test_equal_phases_share_one_realization(self, small_random, cfg):
        # Distinct but content-equal phase objects hit the same entry:
        # the key is a content fingerprint, not object identity.
        builder = TraceBuilder(small_random, cfg)
        first = builder.realize(EdgePhase(name="p"), "push")
        second = builder.realize(EdgePhase(name="p"), "push")
        assert second is first

    def test_direction_is_part_of_the_key_for_edges(self, small_random, cfg):
        builder = TraceBuilder(small_random, cfg)
        builder.realize(EdgePhase(name="p"), "push")
        builder.realize(EdgePhase(name="p"), "pull")
        assert builder.memo_misses == 2
        assert builder.memo_hits == 0

    @pytest.mark.parametrize("phase", [
        EdgePhase(name="p"), VertexPhase(name="v"),
        DynamicPhase(name="d", array="x")], ids=lambda p: type(p).__name__)
    def test_every_field_is_part_of_the_key(self, small_random, cfg, phase):
        # The key is built from dataclasses.fields, so a phase differing
        # in any one field must miss the memo.
        builder = TraceBuilder(small_random, cfg)
        base = builder._fingerprint(phase, "push")
        n = small_random.num_vertices
        for f in dataclasses.fields(phase):
            value = getattr(phase, f.name)
            if value is None:
                value = np.zeros(n, dtype=bool)
            elif isinstance(value, np.ndarray):
                value = np.append(value, 1)
            elif isinstance(value, bool):
                value = not value
            elif isinstance(value, tuple):
                value = value + ("z",)
            elif isinstance(value, str):
                value = value + "z"
            else:
                value = value + 1
            changed = dataclasses.replace(phase, **{f.name: value})
            assert builder._fingerprint(changed, "push") != base, f.name

    def test_vertex_phases_ignore_direction(self, small_random, cfg):
        builder = TraceBuilder(small_random, cfg)
        phase = VertexPhase(name="v", read_arrays=("a",))
        push = builder.realize(phase, "push")
        pull = builder.realize(phase, "pull")
        assert pull is push

    def test_mask_content_is_part_of_the_key(self, small_random, cfg):
        n = small_random.num_vertices
        builder = TraceBuilder(small_random, cfg)
        some = np.zeros(n, dtype=bool)
        some[: n // 2] = True
        builder.realize(EdgePhase(name="p", source_active=some), "push")
        builder.realize(
            EdgePhase(name="p", source_active=np.ones(n, bool)), "push")
        assert builder.memo_misses == 2

    def test_memoized_runs_stay_bit_identical(self, small_random, cfg):
        # Fresh builder per realization vs. one shared builder: same ops.
        phase = EdgePhase(name="p")
        fresh = [TraceBuilder(small_random, cfg).realize(phase, "push")
                 for _ in range(2)]
        shared_builder = TraceBuilder(small_random, cfg)
        shared = [shared_builder.realize(phase, "push") for _ in range(2)]
        for a, b in zip(fresh, shared):
            assert a.blocks == b.blocks


class TestOpInternerPool:
    def test_dedups_op_tuples(self):
        pool = OpInterner()
        a = pool.op(compute(3))
        b = pool.op(compute(3))
        assert a is b
        assert pool.op(compute(4)) is not a

    def test_interned_ops_equal_constructor_ops(self):
        pool = OpInterner()
        assert pool.op(load([7, 8])) == load([7, 8])

    def test_realized_traces_share_op_objects(self, small_random, cfg):
        builder = TraceBuilder(small_random, cfg)
        trace = builder.realize(EdgePhase(name="p"), "push")
        ops = [op for tb in trace.blocks for w in tb for op in w]
        distinct = {id(op) for op in ops}
        unique = {op for op in ops}
        # The pool guarantees one object per distinct op value.
        assert len(distinct) == len(unique) < len(ops)


class TestTraceCounters:
    def test_add_block_maintains_counts(self):
        k = KernelTrace("k")
        assert k.num_warps == 0 and op_count(k) == 0
        k.add_block([[compute(1), compute(2)], [compute(3)]])
        assert k.num_warps == 2 and k.op_count == 3
        k.add_block([[compute(4)]])
        assert k.num_warps == 3 and k.op_count == 4

    def test_counts_of_prebuilt_blocks(self):
        k = KernelTrace("k", blocks=[[[compute(1)], [compute(2)]]])
        assert k.num_warps == 2
        assert op_count(k) == 2
