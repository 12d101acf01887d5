"""Kernel-layer tests: every app's pinned phase stream, frontier masks,
the one direction rule over ``iterations()``, and mask validation."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.adaptive import DirectionPolicy
from repro.graph import DEFAULT_SIM_SCALE
from repro.kernels import (
    BFS,
    KERNELS,
    EdgePhase,
    LabelPropagation,
    TraceBuilder,
    TriangleCounting,
    VertexPhase,
    make_kernel,
)
from repro.sim import SystemConfig

PHASE_DIGESTS = Path(__file__).parent / "data" / "phase_digests.json"


@pytest.fixture
def cfg():
    return SystemConfig(num_sms=2, tb_size=64, l1_bytes=4096,
                        l2_bytes=64 * 1024)


def masks(phase):
    if isinstance(phase, EdgePhase):
        return phase.source_active, phase.target_active
    return (phase.active,)


def schedule(kernel, policy=None, max_iters=None):
    policy = policy or DirectionPolicy()
    return [policy.choose_iteration(iteration, kernel.graph)
            for iteration in kernel.iterations(max_iters)]


class TestFrontier:
    def test_full_has_no_mask(self, small_random):
        # Every-vertex frontiers stay None, never an all-True mask: a
        # mask adds per-warp predicate loads and changes modeled cycles.
        for app in ("PR", "LP", "TC"):
            for iteration in make_kernel(app, small_random).iterations(2):
                for phase in iteration:
                    assert all(m is None for m in masks(phase)), app
        (sssp,) = next(make_kernel("SSSP", small_random).iterations())
        assert sssp.target_active is None
        assert sssp.source_active.dtype == np.bool_

    def test_empty_frontier(self, small_random):
        # A drained source frontier ends the app instead of launching
        # an edge kernel with nothing to propagate.
        for app in ("SSSP", "MIS", "CLR", "BC", "BFS", "KC"):
            for iteration in make_kernel(app, small_random).iterations(50):
                for phase in iteration:
                    if isinstance(phase, EdgePhase):
                        assert phase.source_active.any(), app

    def test_rejects_non_bool_mask(self, star, cfg):
        # Every mask slot, in both directions, rejects an int mask: its
        # ``tolist()`` would still "work" with the wrong predicate.
        builder = TraceBuilder(star, cfg)
        ints = np.ones(star.num_vertices, dtype=np.int64)
        for direction in ("push", "pull"):
            for phase in (EdgePhase(name="e", source_active=ints),
                          EdgePhase(name="e", target_active=ints),
                          VertexPhase(name="v", active=ints)):
                with pytest.raises(ValueError, match="bool"):
                    builder.realize(phase, direction)

    def test_rejects_wrong_shape(self, star, cfg):
        builder = TraceBuilder(star, cfg)
        long = np.ones(star.num_vertices + 1, dtype=bool)
        for direction in ("push", "pull"):
            for phase in (EdgePhase(name="e", source_active=long),
                          EdgePhase(name="e", target_active=long),
                          VertexPhase(name="v", active=long)):
                with pytest.raises(ValueError, match="shape"):
                    builder.realize(phase, direction)


class TestLowering:
    """How a frontier lowers into a realized trace."""

    def test_full_frontier_lowers_to_no_mask(self, star, cfg):
        # None (not an all-True array) is the full frontier: an all-True
        # mask realizes the same edges plus per-warp predicate loads.
        builder = TraceBuilder(star, cfg)
        everyone = np.ones(star.num_vertices, dtype=bool)
        for direction in ("push", "pull"):
            full = builder.realize(EdgePhase(name="e"), direction)
            masked = builder.realize(
                EdgePhase(name="e", source_active=everyone), direction)
            assert full.op_count < masked.op_count, direction
        assert builder.realize(VertexPhase(name="v"), "push").op_count < \
            builder.realize(VertexPhase(name="v", active=everyone),
                            "push").op_count


class TestDirectionRule:
    def test_schedule_valid(self, small_random):
        directions = schedule(BFS(small_random), max_iters=8)
        assert directions
        assert set(directions) <= {"push", "pull"}
        # Level 0 is a single vertex: always push.
        assert directions[0] == "push"

    def test_dense_kernels_schedule_pull(self, small_random):
        # LP and TC run on full frontiers, so the density policy always
        # chooses pull for them.
        assert set(schedule(LabelPropagation(small_random),
                            max_iters=2)) == {"pull"}
        assert schedule(TriangleCounting(small_random)) == ["pull"]

    def test_schedule_honors_policy(self, small_random):
        # Absurdly expensive atomics push every masked frontier across
        # the crossover: the whole BFS schedule flips to pull.
        policy = DirectionPolicy(push_edge_cost=1e9)
        directions = schedule(BFS(small_random), policy=policy, max_iters=4)
        assert set(directions) == {"pull"}

    def test_first_edge_phase_decides(self, small_random):
        n = small_random.num_vertices
        sparse = np.zeros(n, dtype=bool)
        sparse[0] = True
        policy = DirectionPolicy()
        iteration = [VertexPhase(name="v"), EdgePhase(name="dense"),
                     EdgePhase(name="sparse", source_active=sparse)]
        assert policy.choose_iteration(iteration, small_random) == "pull"
        assert policy.choose_iteration(iteration[::-1],
                                       small_random) == "push"

    def test_iterations_without_edge_phase_push(self, small_random):
        assert DirectionPolicy().choose_iteration(
            [VertexPhase(name="v")], small_random) == "push"
        assert set(schedule(make_kernel("CC", small_random),
                            max_iters=3)) == {"push"}


class TestTracegenValidation:
    def test_edge_phase_bad_dtype_names_phase(self, small_random, cfg):
        builder = TraceBuilder(small_random, cfg)
        bad = EdgePhase(name="edgy", source_active=np.zeros(
            small_random.num_vertices, dtype=np.int64))
        with pytest.raises(ValueError, match="'edgy'.*source_active"):
            builder.realize(bad, "push")

    def test_edge_phase_bad_shape_names_phase(self, small_random, cfg):
        builder = TraceBuilder(small_random, cfg)
        bad = EdgePhase(name="edgy", target_active=np.zeros(
            small_random.num_vertices + 1, dtype=bool))
        with pytest.raises(ValueError, match="'edgy'.*target_active"):
            builder.realize(bad, "pull")

    def test_vertex_phase_bad_mask_names_phase(self, small_random, cfg):
        builder = TraceBuilder(small_random, cfg)
        bad = VertexPhase(name="verty", active=[True, False])
        with pytest.raises(ValueError, match="'verty'.*active"):
            builder.realize(bad, "push")

    def test_valid_masks_pass(self, small_random, cfg):
        builder = TraceBuilder(small_random, cfg)
        mask = np.ones(small_random.num_vertices, dtype=bool)
        trace = builder.realize(EdgePhase(name="ok", source_active=mask),
                                "push")
        assert trace.num_blocks > 0


class TestPhaseDigests:
    """Every app's phase stream matches the committed digests exactly.

    Regenerate with ``PYTHONPATH=src python tools/make_golden_fixture.py``
    only when a kernel change is intentional.
    """

    PAYLOAD = json.loads(PHASE_DIGESTS.read_text())

    def test_every_app_and_dataset_is_pinned(self):
        assert set(self.PAYLOAD["digests"]) == {
            f"{app}/{key}@{scale}" for app in KERNELS
            for key, scale in DEFAULT_SIM_SCALE.items()}

    @pytest.mark.parametrize("key", sorted(PAYLOAD["digests"]))
    def test_phases_match_fixture(self, fixture_tool, key):
        app, dataset = key.split("@")[0].split("/")
        assert fixture_tool.phase_digest(app, dataset) == \
            self.PAYLOAD["digests"][key], \
            f"{key} yielded different phases than the committed digests"
