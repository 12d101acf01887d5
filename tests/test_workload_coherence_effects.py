"""Workload-level checks that coherence semantics surface end to end."""

import pytest

from repro.configs import parse_config
from repro.harness import run_workload
from repro.sim import GPUSimulator, SystemConfig
from repro.kernels import PageRank, TraceBuilder


@pytest.fixture(scope="module")
def system():
    return SystemConfig(num_sms=4, l1_bytes=8 * 1024, l2_bytes=64 * 1024,
                        tb_size=64, kernel_launch_cycles=100)


class TestCrossKernelReuse:
    def test_denovo_owned_lines_survive_kernel_boundaries(
        self, small_mesh, system
    ):
        """PR double-buffers ranks: iteration i's atomic updates are read
        by iteration i+1.  Under DeNovo the updated lines stay owned in
        the L1s across the kernel boundary; under GPU coherence the
        acquire wipes the L1, so the reads re-fetch.
        """
        kernel = PageRank(small_mesh)
        builder = TraceBuilder(small_mesh, system)
        results = {}
        for coherence in ("gpu", "denovo"):
            simulator = GPUSimulator(system, coherence, "drfrlx")
            for iteration in kernel.iterations(max_iters=3):
                for phase in iteration:
                    simulator.feed(builder.realize(phase, "push"))
            stats = simulator.memory.stats
            results[coherence] = stats.l1_hits / max(
                1, stats.l1_hits + stats.l1_misses
            )
        assert results["denovo"] > results["gpu"]

    def test_atomic_locality_on_mesh(self, small_mesh, system):
        """A row-major mesh pushes mostly within its own thread block, so
        DeNovo should execute a visible share of atomics locally."""
        kernel = PageRank(small_mesh)
        builder = TraceBuilder(small_mesh, system)
        simulator = GPUSimulator(system, "denovo", "drfrlx")
        for iteration in kernel.iterations(max_iters=3):
            for phase in iteration:
                simulator.feed(builder.realize(phase, "push"))
        stats = simulator.memory.stats
        assert stats.atomics_local > 0.2 * stats.atomics


class TestConsistencyOrderingAtWorkloadLevel:
    def test_sg0_invalidations_outnumber_sg1(self, small_mesh, system):
        a = run_workload("PR", small_mesh,
                         configs=[parse_config("SG0")],
                         system=system, max_iters=2)
        b = run_workload("PR", small_mesh,
                         configs=[parse_config("SG1")],
                         system=system, max_iters=2)
        acq0 = a.results["SG0"].memory_stats.acquires
        acq1 = b.results["SG1"].memory_stats.acquires
        # DRF0 acquires per atomic instruction; DRF1 only per kernel.
        assert acq0 > 2 * acq1

    def test_sync_fraction_ordering(self, small_mesh, system):
        result = run_workload(
            "PR", small_mesh,
            configs=[parse_config(c) for c in ("SG1", "SGR")],
            system=system, max_iters=2,
        )
        sync1 = result.results["SG1"].breakdown.fractions()["sync"]
        sync_rlx = result.results["SGR"].breakdown.fractions()["sync"]
        assert sync_rlx <= sync1


class TestWorkloadResultViews:
    def test_normalized_custom_baseline(self, small_mesh, system):
        result = run_workload(
            "PR", small_mesh,
            configs=[parse_config(c) for c in ("TG0", "SGR")],
            system=system, max_iters=2,
        )
        re_normalized = result.normalized(baseline="SGR")
        assert re_normalized["SGR"] == pytest.approx(1.0)
