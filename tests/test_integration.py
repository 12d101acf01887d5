"""Cross-module integration tests: end-to-end workload simulations."""

import pytest

from repro.configs import parse_config
from repro.graph import (
    DegreeDistribution,
    GraphSpec,
    attach_random_weights,
    generate_graph,
    grid_torus,
)
from repro.harness import run_workload
from repro.model import predict_configuration, workload_profile
from repro.sim import SystemConfig


@pytest.fixture(scope="module")
def system():
    return SystemConfig(
        num_sms=4, l1_bytes=2048, l2_bytes=32 * 1024,
        tb_size=64, max_tbs_per_sm=4, kernel_launch_cycles=200,
    )


@pytest.fixture(scope="module")
def local_graph():
    """High-locality, balanced graph: pull-friendly territory."""
    return attach_random_weights(grid_torus(16, 20, stencil=8, name="local"))


@pytest.fixture(scope="module")
def scattered_graph():
    """Low-locality graph with hubs: push+DRFrlx territory."""
    spec = GraphSpec(
        num_vertices=640,
        degrees=DegreeDistribution("zipf", a=2.2, min_draws=1, max_draws=200),
        locality=0.02,
        tb_size=64,
        seed=13,
        name="scattered",
    )
    return attach_random_weights(generate_graph(spec), seed=13)


class TestQualitativeShape:
    """The paper's first-order claims must hold inside the simulator."""

    @pytest.mark.parametrize("app", ["PR", "SSSP", "MIS", "CLR", "BC"])
    def test_push_drf0_worst_push_variant(self, scattered_graph, system, app):
        result = run_workload(
            app, scattered_graph,
            configs=[parse_config(c) for c in ("SG0", "SG1", "SGR")],
            system=system, max_iters=3,
        )
        assert result.cycles("SG0") >= result.cycles("SG1") * 0.99
        assert result.cycles("SG0") >= result.cycles("SGR") * 0.99

    def test_drfrlx_helps_push_on_imbalanced_graph(self, scattered_graph,
                                                   system):
        result = run_workload(
            "PR", scattered_graph,
            configs=[parse_config("SG1"), parse_config("SGR")],
            system=system, max_iters=3,
        )
        assert result.cycles("SGR") < result.cycles("SG1")

    def test_pull_insensitive_to_consistency(self, scattered_graph, system):
        result = run_workload(
            "PR", scattered_graph,
            configs=[parse_config(c) for c in ("TG0", "TG1", "TGR")],
            system=system, max_iters=3,
        )
        cycles = [result.cycles(c) for c in ("TG0", "TG1", "TGR")]
        assert max(cycles) / min(cycles) < 1.02

    def test_denovo_wins_local_atomics(self, local_graph, system):
        """High reuse + bounded volume: DeNovo push beats GPU push."""
        result = run_workload(
            "PR", local_graph,
            configs=[parse_config("SGR"), parse_config("SDR")],
            system=system, max_iters=3,
        )
        assert result.cycles("SDR") < result.cycles("SGR")

    def test_gpu_coherence_wins_scattered_atomics(self, scattered_graph,
                                                  system):
        """Low reuse: remote-executed DeNovo atomics lose to L2 atomics."""
        result = run_workload(
            "MIS", scattered_graph,
            configs=[parse_config("SGR"), parse_config("SDR")],
            system=system, max_iters=3,
        )
        assert result.cycles("SGR") < result.cycles("SDR") * 1.1

    def test_cc_insensitive_to_relaxation(self, scattered_graph, system):
        """CC's value-returning CASes cap DRFrlx benefits (IV-A4)."""
        result = run_workload(
            "CC", scattered_graph,
            configs=[parse_config("DG1"), parse_config("DGR")],
            system=system, max_iters=4,
        )
        ratio = result.cycles("DGR") / result.cycles("DG1")
        assert 0.95 < ratio <= 1.001


class TestModelToSimulatorAgreement:
    def test_prediction_runs_and_is_competitive(self, local_graph, system):
        profile = workload_profile(local_graph, "PR", system)
        predicted = predict_configuration(profile)
        result = run_workload("PR", local_graph, system=system, max_iters=3)
        if predicted.code in result.results:
            gap = (result.cycles(predicted.code)
                   / result.cycles(result.best_code))
            assert gap < 2.0


class TestDeterminism:
    def test_same_seed_same_cycles(self, scattered_graph, system):
        a = run_workload("SSSP", scattered_graph, system=system, max_iters=3)
        b = run_workload("SSSP", scattered_graph, system=system, max_iters=3)
        for code in a.results:
            assert a.cycles(code) == b.cycles(code)

    def test_breakdown_accounts_for_all_time(self, scattered_graph, system):
        result = run_workload("PR", scattered_graph, system=system,
                              max_iters=2)
        for res in result.results.values():
            # SM-cycles must equal SMs x wall-clock per kernel.
            expected = system.num_sms * sum(res.kernel_cycles)
            assert res.breakdown.total == pytest.approx(expected, rel=0.01)


class TestFunctionalTimingConsistency:
    """The traces must reflect the functional algorithm's behavior."""

    def test_sssp_trace_shrinks_with_frontier(self, scattered_graph, system):
        from repro.kernels import SSSP, TraceBuilder
        from repro.sim.trace import op_count

        kernel = SSSP(scattered_graph)
        builder = TraceBuilder(scattered_graph, system)
        counts = []
        for iteration in kernel.iterations(max_iters=4):
            traces = builder.realize_iteration(iteration, "push")
            counts.append(sum(op_count(t) for t in traces))
        # The first frontier is one vertex; later frontiers are larger.
        assert counts[0] < max(counts)

    def test_mis_trace_shrinks_as_vertices_decide(self, scattered_graph,
                                                  system):
        from repro.kernels import MIS, TraceBuilder
        from repro.sim.trace import op_count

        kernel = MIS(scattered_graph)
        builder = TraceBuilder(scattered_graph, system)
        counts = []
        for iteration in kernel.iterations(max_iters=4):
            traces = builder.realize_iteration(iteration, "push")
            counts.append(sum(op_count(t) for t in traces))
        assert counts[-1] < counts[0]

    def test_cc_converges_and_stops_early(self, local_graph, system):
        from repro.kernels import ConnectedComponents

        kernel = ConnectedComponents(local_graph)
        iterations = list(kernel.iterations(max_iters=50))
        assert len(iterations) < 50

        labels = kernel.functional()
        assert (labels == 0).all()  # torus is one component
