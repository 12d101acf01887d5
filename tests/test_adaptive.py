"""Tests for the flexible-system and runtime-adaptation layer."""

import pytest

from repro.adaptive import (
    DirectionPolicy,
    FlexibleSimulator,
    OnlineSelector,
    run_adaptive,
    run_direction_adaptive,
)
from repro.configs import parse_config
from repro.kernels import make_kernel
from repro.kernels.base import EdgePhase
from repro.sim import (
    GPUSimulator,
    KernelTrace,
    SystemConfig,
    acquire,
    atomic,
    load,
    release,
)

import numpy as np
from tests.conftest import owned_lines


@pytest.fixture
def cfg():
    return SystemConfig(num_sms=2, l1_bytes=2048, l2_bytes=32 * 1024,
                        tb_size=64, kernel_launch_cycles=100)


def kernel_with_atomics(n=40, name="k"):
    k = KernelTrace(name)
    ops = [acquire()]
    for i in range(n):
        ops.append(load([i]))
        ops.append(atomic([(i % 7, 1)]))
    ops.append(release())
    k.add_block([ops])
    return k


class TestFlexibleSimulator:
    def test_matches_fixed_when_never_switching(self, cfg):
        flexible = FlexibleSimulator(cfg)
        fixed = GPUSimulator(cfg, "gpu", "drfrlx")
        for i in range(3):
            flexible.feed(kernel_with_atomics(name=f"k{i}"), "gpu", "drfrlx")
            fixed.feed(kernel_with_atomics(name=f"k{i}"))
        assert flexible.result().cycles == fixed.result().cycles
        assert not flexible.events

    def test_switch_records_event_and_costs(self, cfg):
        stay = FlexibleSimulator(cfg, reconfig_cycles=5000)
        switch = FlexibleSimulator(cfg, reconfig_cycles=5000)
        for i in range(2):
            stay.feed(kernel_with_atomics(name=f"k{i}"), "gpu", "drf1")
        switch.feed(kernel_with_atomics(name="k0"), "gpu", "drf1")
        switch.feed(kernel_with_atomics(name="k1"), "denovo", "drf1")
        assert len(switch.events) == 1
        event = switch.events[0]
        assert event.from_coherence != event.to_coherence
        assert switch.result().cycles >= stay.result().cycles

    def test_consistency_switch_is_free(self, cfg):
        flexible = FlexibleSimulator(cfg, reconfig_cycles=5000)
        flexible.feed(kernel_with_atomics(name="k0"), "gpu", "drf1")
        before = flexible.result().cycles
        flexible.feed(kernel_with_atomics(name="k1"), "gpu", "drfrlx")
        assert len(flexible.events) == 1
        event = flexible.events[0]
        assert event.from_coherence == event.to_coherence
        # No 5000-cycle reconfiguration penalty was charged.
        assert flexible.result().cycles < before * 2 + 5000

    def test_result_aggregates_kernels(self, cfg):
        flexible = FlexibleSimulator(cfg)
        flexible.feed(kernel_with_atomics(), "gpu", "drf1")
        flexible.feed(kernel_with_atomics(), "denovo", "drf1")
        result = flexible.result()
        assert len(result.kernel_cycles) == 2
        assert set(result.memory_stats) == {"gpu", "denovo"}

    def test_coherence_switch_drops_stale_owners(self, cfg):
        flexible = FlexibleSimulator(cfg)
        flexible.feed(kernel_with_atomics(name="k0"), "denovo", "drf1")
        memory = flexible._memories["denovo"]
        assert memory.owner
        flexible.feed(kernel_with_atomics(name="k1"), "gpu", "drf1")
        # Loads only, away from the lines the first kernel owned.
        k2 = KernelTrace("k2")
        k2.add_block([[load([100 + i]) for i in range(8)]])
        flexible.feed(k2, "denovo", "drf1")
        # Every registration names an L1 that really owns the line.
        for line, sm in memory.owner.items():
            assert line in owned_lines(memory.l1s[sm])


class TestOnlineSelector:
    def _candidates(self):
        return [parse_config("SG1"), parse_config("SGR")]

    def test_explores_then_commits(self):
        selector = OnlineSelector(self._candidates())
        first = selector.choose(0)
        second = selector.choose(1)
        assert {first.code, second.code} == {"SG1", "SGR"}
        selector.record(first, cycles=1000.0, ops=10)
        selector.record(second, cycles=10.0, ops=10)
        committed = selector.choose(2)
        assert committed.code == second.code
        assert selector.committed is committed

    def test_commits_to_cheapest_per_op(self):
        selector = OnlineSelector(self._candidates())
        a, b = self._candidates()
        selector.choose(0)
        selector.choose(1)
        selector.record(a, cycles=100.0, ops=100)   # 1.0 / op
        selector.record(b, cycles=100.0, ops=10)    # 10.0 / op
        assert selector.choose(5).code == a.code

    def test_commit_without_data_falls_back(self):
        selector = OnlineSelector(self._candidates())
        assert selector.choose(99).code == "SG1"


class TestRunAdaptive:
    def test_adaptive_commits_to_oracle_and_amortizes(self, small_random,
                                                      cfg):
        result = run_adaptive("PR", small_random, system=cfg, max_iters=20,
                              reconfig_cycles=200)
        assert result.committed == result.oracle_code
        # Exploration costs amortize over a long run.
        assert result.overhead_vs_oracle < 1.6
        # Explored each of the 4 candidates once: 3 switches to explore
        # plus at most one to come home.
        assert result.reconfigurations <= 4

    def test_mixed_directions_rejected(self, small_random, cfg):
        with pytest.raises(ValueError, match="direction"):
            run_adaptive(
                "PR", small_random,
                candidates=[parse_config("TG0"), parse_config("SGR")],
                system=cfg,
            )

    def test_dynamic_app_supported(self, small_random, cfg):
        result = run_adaptive("CC", small_random, system=cfg, max_iters=4)
        assert set(result.fixed_cycles) <= {"DG1", "DGR", "DD1", "DDR"}


class TestDirectionPolicy:
    def test_dense_frontier_pulls(self, small_random):
        phase = EdgePhase(name="p", source_active=np.ones(
            small_random.num_vertices, dtype=bool))
        assert DirectionPolicy().choose(phase, small_random) == "pull"

    def test_sparse_frontier_pushes(self, small_random):
        mask = np.zeros(small_random.num_vertices, dtype=bool)
        mask[0] = True
        phase = EdgePhase(name="p", source_active=mask)
        assert DirectionPolicy().choose(phase, small_random) == "push"

    def test_no_mask_means_dense(self, small_random):
        assert DirectionPolicy().choose(
            EdgePhase(name="p"), small_random) == "pull"

    def test_cost_ratio_moves_crossover(self, star):
        # Star: the hub's 5 out-edges are half of the 10.  Cheap atomics
        # keep pushing; expensive atomics cross over to pull.
        hub = np.zeros(star.num_vertices, dtype=bool)
        hub[0] = True
        phase = EdgePhase(name="p", source_active=hub)
        cheap_atomics = DirectionPolicy(push_edge_cost=1.0)
        dear_atomics = DirectionPolicy(push_edge_cost=10.0)
        assert cheap_atomics.choose(phase, star) == "push"
        assert dear_atomics.choose(phase, star) == "pull"

    def test_pull_cost_moves_crossover(self, star):
        # The other cost field: cheap gathers pull the hub's half of the
        # edges, dear gathers keep pushing even an all-True mask.
        hub = np.zeros(star.num_vertices, dtype=bool)
        hub[0] = True
        everyone = np.ones(star.num_vertices, dtype=bool)
        cheap_gathers = DirectionPolicy(pull_edge_cost=0.5)
        dear_gathers = DirectionPolicy(pull_edge_cost=2.0)
        assert DirectionPolicy().choose(
            EdgePhase(name="p", source_active=hub), star) == "push"
        assert cheap_gathers.choose(
            EdgePhase(name="p", source_active=hub), star) == "pull"
        assert DirectionPolicy().choose(
            EdgePhase(name="p", source_active=everyone), star) == "pull"
        assert dear_gathers.choose(
            EdgePhase(name="p", source_active=everyone), star) == "push"

    def test_full_frontier_pulls(self, small_random):
        # The edge phases the every-vertex apps yield carry no mask.
        for app in ("PR", "LP", "TC"):
            for iteration in make_kernel(app, small_random).iterations(2):
                for phase in iteration:
                    if isinstance(phase, EdgePhase):
                        assert DirectionPolicy().choose(
                            phase, small_random) == "pull", app

    def test_single_source_frontier_pushes(self, small_random):
        # The single-source apps open with a one-vertex frontier.
        for app in ("BFS", "SSSP", "BC"):
            first = next(make_kernel(app, small_random).iterations())
            phase = next(p for p in first if isinstance(p, EdgePhase))
            assert int(phase.source_active.sum()) == 1, app
            assert DirectionPolicy().choose(phase, small_random) == "push"

    def test_edgeless_graph_pushes(self):
        from repro.graph import from_edge_list

        empty = from_edge_list(3, [], [], name="empty")
        assert DirectionPolicy().choose(EdgePhase(name="p"), empty) == "push"


class TestRunDirectionAdaptive:
    def test_sssp_switches_and_competes(self, small_random, cfg):
        result = run_direction_adaptive("SSSP", small_random, system=cfg,
                                        max_iters=6)
        assert result.directions[0] == "push"  # one-vertex frontier
        assert result.adaptive_cycles > 0
        # Within 2x of the better fixed direction (usually much closer).
        assert result.adaptive_cycles < 2 * result.best_fixed_cycles

    def test_dynamic_app_rejected(self, small_random, cfg):
        with pytest.raises(ValueError, match="static"):
            run_direction_adaptive("CC", small_random, system=cfg)
