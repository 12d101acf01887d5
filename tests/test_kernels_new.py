"""Functional correctness and push/pull equivalence of the IR workloads.

The four applications added beyond the paper's six (BFS, KC, TC, LP)
are checked against independent references (networkx / hand-rolled
numpy), and their phase streams are realized in *both* directions through the trace
generator and simulator — push and pull must describe the same
computation (same launches, same iteration structure) even though their
modeled timing differs.
"""

import networkx as nx
import numpy as np
import pytest

from repro.configs import parse_config
from repro.graph import normalize
from repro.harness import run_workload
from repro.kernels import (
    BFS,
    EdgePhase,
    KCore,
    LabelPropagation,
    TriangleCounting,
    TraceBuilder,
    VertexPhase,
    make_kernel,
)
from repro.sim import SystemConfig
from tests.conftest import to_networkx

NEW_APPS = ("BFS", "KC", "TC", "LP")


@pytest.fixture
def sym_random(small_random):
    """The paper's input pipeline applied to the random fixture:
    symmetric, simple, no self-loops (what KC/TC references require)."""
    return normalize(small_random)


class TestBFS:
    def test_matches_networkx(self, small_random):
        kernel = BFS(small_random)
        level = kernel.functional()
        expected = nx.single_source_shortest_path_length(
            to_networkx(small_random), kernel.source
        )
        for v in range(small_random.num_vertices):
            assert level[v] == expected.get(v, -1)

    def test_source_level_zero(self, small_random):
        kernel = BFS(small_random)
        assert kernel.functional()[kernel.source] == 0

    def test_unreachable_is_minus_one(self, two_components):
        level = BFS(two_components, source=0).functional()
        assert level[2] == -1 and level[3] == -1

    def test_path_graph(self, path4):
        assert BFS(path4, source=0).functional().tolist() == [0, 1, 2, 3]

    def test_source_out_of_range_rejected(self, path4):
        with pytest.raises(ValueError, match="range"):
            BFS(path4, source=99)

    def test_defaults_to_max_degree_source(self, star):
        assert BFS(star).source == 0

    def test_frontier_program_is_levels(self, path4):
        # One EdgePhase per level; its source frontier is exactly that
        # level's vertex set and its target is the unvisited set.
        its = list(BFS(path4, source=0).iterations(max_iters=10))
        # One launch per non-empty level (the last one discovers nothing).
        assert [np.flatnonzero(phase.source_active).tolist()
                for (phase,) in its] == [[0], [1], [2], [3]]
        (phase,) = its[0]
        assert phase.target_active.tolist() == [False, True, True, True]
        assert phase.atomic_needs_value  # CAS claim feeds frontier insertion


class TestKCore:
    def test_matches_networkx(self, sym_random):
        core = KCore(sym_random).functional()
        expected = nx.core_number(
            to_networkx(sym_random).to_undirected()
        )
        for v in range(sym_random.num_vertices):
            assert core[v] == expected[v]

    def test_path_graph(self, path4):
        # A path is 1-degenerate: everyone is in the 1-core, nothing more.
        assert KCore(path4).functional().tolist() == [1, 1, 1, 1]

    def test_triangle_is_two_core(self, sym_triangle):
        assert KCore(sym_triangle).functional().tolist() == [2, 2, 2]

    def test_isolated_vertex_core_zero(self, two_components):
        assert KCore(two_components).functional()[4] == 0

    def test_only_peeling_rounds_launch(self, path4):
        # path4 peels in two rounds (ends first, then the middle pair);
        # threshold bumps that remove nothing must not become launches.
        its = list(KCore(path4).iterations(max_iters=50))
        assert len(its) == 2
        peel, scan = its[0]
        assert isinstance(peel, EdgePhase) and isinstance(scan, VertexPhase)
        assert peel.source_active.tolist() == [True, False, False, True]
        assert peel.target_active.tolist() == [False, True, True, False]
        assert scan.active.tolist() == [False, True, True, False]
        assert scan.write_arrays == ("vstate",)  # the filter's flags


class TestTriangleCounting:
    def test_matches_networkx(self, sym_random):
        counts = TriangleCounting(sym_random).functional()
        expected = nx.triangles(to_networkx(sym_random).to_undirected())
        for v in range(sym_random.num_vertices):
            assert counts[v] == expected[v]

    def test_triangle_graph(self, sym_triangle):
        assert TriangleCounting(sym_triangle).functional().tolist() == [1, 1, 1]

    def test_path_has_no_triangles(self, path4):
        assert TriangleCounting(path4).functional().sum() == 0

    def test_sum_is_three_per_triangle(self, sym_random):
        counts = TriangleCounting(sym_random).functional()
        total = nx.triangles(to_networkx(sym_random).to_undirected())
        assert counts.sum() == sum(total.values())

    def test_single_launch(self, sym_random):
        its = list(TriangleCounting(sym_random).iterations())
        assert len(its) == 1
        (phase,) = its[0]
        # The full frontier is None on both sides, never an all-True mask.
        assert phase.source_active is None and phase.target_active is None


class TestLabelPropagation:
    def test_triangle_converges_to_min_label(self, sym_triangle):
        assert LabelPropagation(sym_triangle).functional().tolist() == [0, 0, 0]

    def test_isolated_vertex_keeps_label(self, two_components):
        labels = LabelPropagation(two_components).functional()
        assert labels[4] == 4

    def test_labels_never_cross_components(self, two_components):
        labels = LabelPropagation(two_components).functional()
        assert set(labels[[0, 1]]) <= {0, 1}
        assert set(labels[[2, 3]]) <= {2, 3}

    def test_respects_max_iters(self, small_mesh):
        one = LabelPropagation(small_mesh).functional(max_iters=1)
        # After a single round some vertex must have adopted a
        # neighbor's label.
        assert (one != np.arange(small_mesh.num_vertices)).any()

    def test_step_takes_mode_with_min_tiebreak(self, star):
        lp = LabelPropagation(star)
        labels = np.arange(star.num_vertices, dtype=np.int64)
        stepped = lp._step(labels)
        # Leaves see only the hub; the hub sees five distinct labels and
        # ties break toward the smallest.
        assert stepped.tolist() == [1, 0, 0, 0, 0, 0]

    def test_dense_program_carries_no_masks(self, sym_triangle):
        for phases in LabelPropagation(sym_triangle).iterations(max_iters=2):
            advance, assign = phases
            assert advance.source_active is None
            assert advance.target_active is None
            assert assign.active is None


class TestPushPullEquivalence:
    """Push and pull must realize the same operator program.

    The simulator is timing-only: data lives in the kernel's state loop,
    ``iterations()``, which ``functional()`` drains, and the realized
    direction never feeds back into it.  So equivalence here means: every phase of every new workload realizes
    in both directions, the iteration structure is identical, and both
    directions simulate to completion through the harness.
    """

    @pytest.fixture
    def cfg(self):
        return SystemConfig(num_sms=2, tb_size=64, l1_bytes=4096,
                            l2_bytes=64 * 1024)

    @pytest.mark.parametrize("app", NEW_APPS)
    def test_phases_realize_both_directions(self, app, sym_random, cfg):
        kernel = make_kernel(app, sym_random)
        builder = TraceBuilder(sym_random, cfg)
        iterations = list(kernel.iterations(max_iters=3))
        assert iterations
        for phases in iterations:
            push = [builder.realize(p, "push") for p in phases]
            pull = [builder.realize(p, "pull") for p in phases]
            # Same launches either way: names (modulo the direction
            # suffix) and block partitioning agree; only the memory
            # behavior inside differs.
            def strip(t):
                return t.name.rsplit(":", 1)[0]

            assert [strip(t) for t in push] == [strip(t) for t in pull]
            assert [t.num_blocks for t in push] == [t.num_blocks
                                                   for t in pull]

    @pytest.mark.parametrize("app", NEW_APPS)
    def test_runs_under_harness_both_directions(self, app, sym_random,
                                                tiny_system):
        result = run_workload(
            app, sym_random,
            configs=[parse_config("SG1"), parse_config("TG1")],
            system=tiny_system, max_iters=2,
        )
        assert set(result.results) == {"SG1", "TG1"}
        assert all(r.cycles > 0 for r in result.results.values())

    @pytest.mark.parametrize("app", NEW_APPS)
    def test_functional_ignores_direction(self, app, sym_random):
        # Drive the phase feed to exhaustion (as a sweep would) and
        # confirm the algorithmic result is untouched by realization:
        # direction only exists at trace level.
        kernel = make_kernel(app, sym_random)
        before = kernel.functional(max_iters=4)
        for _ in kernel.iterations(max_iters=4):
            pass
        after = kernel.functional(max_iters=4)
        assert np.array_equal(before, after)
