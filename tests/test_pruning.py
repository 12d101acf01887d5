"""Prediction-guided sweep pruning: policy, plans, aggregation.

Covers the pruning subsystem end to end plus the three restricted-sweep
bugs it exposed (each test named ``test_regression_*`` failed before the
fix):

* ``aggregate_sweep`` leaked a bare ``StopIteration`` on a truncated
  outcome stream instead of a counted ``ValueError``;
* ``SweepRow.baseline`` silently fell back to dict insertion order, so a
  pruned/reordered result normalized against an arbitrary config;
* ``prediction_exact`` counted best-of-a-pruned-subset as a clean oracle
  hit.
"""

import copy
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.bench_pruning import SETTINGS, compare_measurements
from repro.configs import figure5_configurations
from repro.graph import load_dataset
from repro.harness import run_sweep
from repro.harness.sweep import SweepResult, SweepRow, aggregate_sweep, \
    plan_sweep
from repro.model import workload_profile
from repro.model.pruning import PruningPolicy, sweep_baseline
from repro.runtime import (
    ExecutionPlan,
    ResultCache,
    UnitFailure,
    WorkloadSpec,
    run_plan,
)
from repro.sim import StallBreakdown
from repro.sim.engine import ExecutionResult

PRUNE_SUBSETS = Path(__file__).parent / "data" / "prune_subsets.json"
BENCH_PRUNING = Path(__file__).parent.parent / "BENCH_pruning.json"

MINI = dict(graphs=("RAJ",), apps=("MIS", "CC"), max_iters=1,
            scales={"RAJ": 32})


@pytest.fixture(scope="module")
def raj_graph():
    return load_dataset("RAJ", scale=32)


@pytest.fixture(scope="module")
def profiles(raj_graph):
    return {app: workload_profile(raj_graph, app)
            for app in ("PR", "MIS", "CC")}


def _static_grid():
    return [c.code for c in figure5_configurations("static")]


def _fake_workload(app, codes, baseline=None, graph_name="RAJ"):
    """A hand-built WorkloadResult with distinct, increasing cycles."""
    from repro.harness.runner import WorkloadResult

    result = WorkloadResult(app=app, graph_name=graph_name,
                            baseline=baseline)
    for i, code in enumerate(codes):
        result.results[code] = ExecutionResult(
            cycles=100.0 + 10.0 * i, breakdown=StallBreakdown(busy=1))
    return result


class TestPruningPolicy:
    def test_rank_is_permutation_of_grid(self, profiles):
        policy = PruningPolicy(k=1)
        ranked = policy.rank(profiles["PR"])
        assert sorted(ranked) == sorted(_static_grid())

    def test_rank_leads_with_tree_prediction(self, profiles):
        # The one ranking rule: the tree's pick, then the rest in
        # ascending analytic cost with the code breaking ties.
        from repro.model import estimate_design_space, predict_configuration

        policy = PruningPolicy(k=1)
        for app in ("PR", "MIS", "CC"):
            profile = profiles[app]
            ranked = policy.rank(profile)
            tree = predict_configuration(profile).code
            space = figure5_configurations(profile.app.traversal.value)
            estimates = estimate_design_space(profile, space)
            assert ranked[0] == tree
            assert ranked[1:] == sorted(
                (config.code for config in space if config.code != tree),
                key=lambda code: (estimates[code].total, code))

    def test_subset_keeps_baseline(self, profiles):
        for app, bar in (("PR", "TG0"), ("MIS", "TG0"), ("CC", "DG1")):
            subset = PruningPolicy(k=1).subset(profiles[app])
            assert bar in subset

    def test_subset_size_bounds(self, profiles):
        grid = len(_static_grid())
        for k in (1, 2):
            for explore in (0, 1, 2):
                subset = PruningPolicy(k=k, explore=explore).subset(
                    profiles["PR"])
                assert k <= len(subset) <= min(grid, k + explore + 1)
                assert len(set(subset)) == len(subset)

    def test_subset_in_figure5_order(self, profiles):
        order = {code: i for i, code in enumerate(_static_grid())}
        subset = PruningPolicy(k=2, explore=1).subset(profiles["PR"])
        assert list(subset) == sorted(subset, key=order.__getitem__)

    def test_subset_deterministic(self, profiles):
        a = PruningPolicy(k=1, explore=2, seed=7).subset(profiles["PR"])
        b = PruningPolicy(k=1, explore=2, seed=7).subset(profiles["PR"])
        assert a == b

    def test_explore_seed_changes_sample(self, profiles):
        subsets = {PruningPolicy(k=1, explore=1, seed=s).subset(
            profiles["PR"]) for s in range(8)}
        assert len(subsets) > 1  # the exploration draw actually varies

    def test_validation(self):
        with pytest.raises(ValueError):
            PruningPolicy(k=0)
        with pytest.raises(ValueError):
            PruningPolicy(k=1, explore=-1)


class TestPrunedPlanPin:
    """Every dataset x app's pruned plan matches the committed pin.

    Regenerate with ``PYTHONPATH=src python tools/make_golden_fixture.py``
    only when a ranking or exploration change is intentional.
    """

    PAYLOAD = json.loads(PRUNE_SUBSETS.read_text())

    def test_pins_the_benchmarked_settings(self, fixture_tool):
        assert fixture_tool.PRUNE_SETTINGS == SETTINGS
        assert set(self.PAYLOAD["subsets"]) == {
            f"k={k},explore={explore}" for k, explore in SETTINGS}

    @pytest.mark.parametrize("k, explore", SETTINGS)
    def test_plan_matches_pin(self, fixture_tool, k, explore):
        assert fixture_tool.prune_subsets(k, explore) == \
            self.PAYLOAD["subsets"][f"k={k},explore={explore}"]


class TestModeledWorkCheck:
    """``bench_pruning.py --check-against``: deterministic fields are
    compared and named, wall-clock fields never are."""

    @pytest.fixture
    def pair(self):
        """A measurement to edit and the committed one it is checked
        against."""
        committed = json.loads(BENCH_PRUNING.read_text())
        return copy.deepcopy(committed), committed

    def test_identical_measurements_pass(self, pair):
        assert compare_measurements(*pair) == []

    def test_changed_ops_fails_and_is_named(self, pair):
        measured, _ = pair
        measured["oracle"]["ops"] += 1
        [difference] = compare_measurements(*pair)
        assert difference.startswith("oracle.ops:")

    def test_changed_variant_quality_fails_and_is_named(self, pair):
        measured, _ = pair
        measured["variants"][0]["achieved_geomean"] = 0.5
        [difference] = compare_measurements(*pair)
        assert difference.startswith(
            "variants[k=1,explore=0].achieved_geomean:")

    def test_dropped_field_fails(self, pair):
        measured, _ = pair
        del measured["variants"][-1]["ops"]
        [difference] = compare_measurements(*pair)
        assert difference.startswith("variants[k=2,explore=1].ops:")
        assert "<missing>" in difference

    def test_wall_clock_is_never_compared(self, pair):
        measured, _ = pair
        measured["commit"] = "elsewhere"
        measured["oracle"]["phases"]["total_s"] *= 3
        for variant in measured["variants"]:
            variant["phases"]["simulate_s"] += 100.0
            variant["total_fraction"] = 9.9
        assert compare_measurements(*pair) == []


class TestRestrictedPlans:
    PLAN = dict(max_iters=1, scales={"RAJ": 32})

    def test_unpruned_units_keep_digests(self):
        # An unpruned plan is exactly the full grid; pruning changes a
        # unit's configs and nothing else, so every other field — and
        # the digest an unrestricted plan gives it — is untouched.
        full = ExecutionPlan.for_sweep(("RAJ",), ("MIS", "CC"), **self.PLAN)
        plan, subsets = plan_sweep(("RAJ",), ("MIS", "CC"), **self.PLAN)
        assert subsets is None
        assert [u.digest() for u in plan] == [u.digest() for u in full]
        pruned, subsets = plan_sweep(("RAJ",), ("MIS", "CC"),
                                     prune=PruningPolicy(k=1), **self.PLAN)
        for unit, restricted in zip(full, pruned):
            assert restricted.configs == subsets[("RAJ", unit.app)]
            assert restricted.digest() != unit.digest()
            assert replace(restricted, configs=unit.configs) == unit

    def test_restricted_spec_round_trips(self):
        plan, _ = plan_sweep(("RAJ",), ("MIS",), prune=PruningPolicy(k=1),
                             **self.PLAN)
        spec = plan[0]
        assert len(spec.configs) < len(_static_grid())
        assert spec.baseline == "TG0"
        clone = WorkloadSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_subset_dropping_baseline_rejected(self):
        plan, _ = plan_sweep(("RAJ",), ("MIS",), prune=PruningPolicy(k=1),
                             **self.PLAN)
        with pytest.raises(ValueError, match="baseline"):
            replace(plan[0], configs=("SGR", "SDR"))

    def test_plan_sweep_matches_run_sweep_digests(self, tmp_path):
        # The server path rebuilds the plan through plan_sweep; its
        # digests must be exactly what the executed sweep cached.
        run_sweep(cache=tmp_path / "cache", prune_k=1, explore=1, **MINI)
        plan, subsets = plan_sweep(
            ("RAJ",), ("MIS", "CC"), max_iters=1, scales={"RAJ": 32},
            prune=PruningPolicy(k=1, explore=1))
        assert set(subsets) == {("RAJ", "MIS"), ("RAJ", "CC")}
        cache = ResultCache(tmp_path / "cache")
        assert all(cache.get(spec) is not None for spec in plan)
        assert cache.hits == len(plan) == 2


class TestPrunedSweep:
    @pytest.fixture(scope="class")
    def pruned(self):
        return run_sweep(prune_k=1, explore=0, **MINI)

    def test_rows_are_subsets(self, pruned):
        assert len(pruned.rows) == 2
        for row in pruned.rows:
            grid = {c.code for c in figure5_configurations(
                "dynamic" if row.app == "CC" else "static")}
            simulated = set(row.workload.results)
            assert simulated < grid
            assert not row.oracle_known

    def test_rows_stay_normalizable(self, pruned):
        for row in pruned.rows:
            assert row.baseline_simulated
            assert row.normalized()[row.baseline] == pytest.approx(1.0)

    def test_regression_figure6_tolerates_pruned_rows(self, pruned):
        # Pre-fix, figure6_rows raised KeyError('SGR'/'DGR') on any
        # pruned row that never simulated the default config.
        from repro.harness import figure6_rows, flexibility_stats

        for row in figure6_rows(pruned):
            workload = pruned.row(row.graph, row.app).workload
            assert row.reference in workload.results
        stats = flexibility_stats(pruned)
        assert stats.total_workloads == 2

    def test_cache_resume_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = run_sweep(cache=cache, prune_k=1, **MINI)
        warm = ResultCache(tmp_path / "cache")
        second = run_sweep(cache=warm, prune_k=1, **MINI)
        assert warm.hits == 2 and warm.misses == 0
        for a, b in zip(first.rows, second.rows):
            assert a.workload.to_dict() == b.workload.to_dict()

    def test_pruned_and_full_caches_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(cache=cache, prune_k=1, **MINI)
        full_cache = ResultCache(tmp_path / "cache")
        full = run_sweep(cache=full_cache, **MINI)
        assert full_cache.misses == 2  # different digests, no reuse
        for row in full.rows:
            assert row.oracle_known


class TestProfileOnce:
    def test_pruned_sweep_profiles_each_graph_once(self, monkeypatch):
        # Planning and aggregating one pruned sweep share one profile
        # per (graph, system) instead of each profiling the graph.
        from repro.harness import sweep

        calls = []
        real = sweep.profile_graph

        def counting(graph, system):
            calls.append(graph.name)
            return real(graph, system)

        sweep._graph_profile.cache_clear()
        monkeypatch.setattr(sweep, "profile_graph", counting)
        result = run_sweep(prune_k=1, **dict(MINI, apps=("MIS",)))
        sweep._graph_profile.cache_clear()
        assert len(result.rows) == 1
        assert len(calls) == 1


class TestAggregateSweep:
    def test_regression_truncated_workloads_raise_value_error(self):
        plan = ExecutionPlan.for_sweep(("RAJ",), ("MIS", "CC"),
                                       max_iters=1, scales={"RAJ": 32})
        with pytest.raises(ValueError, match="expected 2 .* received"):
            aggregate_sweep(plan, [], ("RAJ",), ("MIS", "CC"))

    def test_regression_truncated_plan_raises_value_error(self):
        plan = ExecutionPlan.for_sweep(("RAJ",), ("MIS",),
                                       max_iters=1, scales={"RAJ": 32})
        fake = [_fake_workload("MIS", _static_grid(), baseline="TG0")] * 2
        with pytest.raises(ValueError, match="1 plan unit"):
            aggregate_sweep(plan, fake, ("RAJ",), ("MIS", "CC"))

    def test_failures_and_pruned_rows_interleave(self, tmp_path):
        plan, _ = plan_sweep(("RAJ",), ("MIS", "CC"), max_iters=1,
                             scales={"RAJ": 32},
                             prune=PruningPolicy(k=1))
        outcomes = run_plan(plan)
        outcomes[0] = UnitFailure(
            digest=plan[0].digest(), label=plan[0].label, kind="crash",
            attempts=1, exception="RuntimeError", message="boom")
        sweep = aggregate_sweep(plan, outcomes, ("RAJ",), ("MIS", "CC"))
        assert len(sweep.failures) == 1
        assert [row.app for row in sweep.rows] == ["CC"]
        assert not sweep.rows[0].oracle_known
        assert sweep.rows[0].profile is not None


class TestBaselineSemantics:
    def test_regression_declared_baseline_missing_raises(self):
        workload = _fake_workload("PR", ["SGR", "SDR"], baseline="TG0")
        with pytest.raises(ValueError, match="TG0.*not simulated"):
            workload.normalized()

    def test_regression_row_baseline_never_insertion_order(self):
        # Pre-fix, this row normalized against SGR (first inserted).
        workload = _fake_workload("PR", ["SGR", "SDR"], baseline=None)
        row = SweepRow(graph="RAJ", app="PR", workload=workload,
                       predicted="SGR", predicted_partial="SG1")
        assert row.baseline == "TG0"
        assert not row.baseline_simulated
        assert all(math.isnan(v) for v in row.normalized().values())

    def test_undeclared_baseline_falls_back_to_figure5_bar(self):
        workload = _fake_workload("CC", ["DG1", "DDR"], baseline=None)
        row = SweepRow(graph="RAJ", app="CC", workload=workload,
                       predicted="DDR", predicted_partial="DD1")
        assert row.baseline == sweep_baseline("dynamic") == "DG1"
        assert row.normalized()["DG1"] == pytest.approx(1.0)

    def test_executor_honors_spec_baseline(self):
        # run_workload marks configs[0] as baseline; the spec's declared
        # bar must win even when the subset does not lead with it.
        from repro.runtime import GraphRef, execute_spec

        spec = WorkloadSpec.for_workload(
            "PR", GraphRef.dataset("RAJ", scale=32),
            configs=("SGR", "TG0"), baseline="TG0", max_iters=1)
        result = execute_spec(spec)
        assert result.baseline == "TG0"
        assert result.normalized()["TG0"] == pytest.approx(1.0)


class TestOracleKnown:
    def _row(self, codes, predicted):
        workload = _fake_workload("PR", codes, baseline="TG0")
        return SweepRow(graph="RAJ", app="PR", workload=workload,
                        predicted=predicted, predicted_partial="SG1")

    def test_full_grid_is_oracle_known(self):
        assert self._row(_static_grid(), "TG0").oracle_known

    def test_subset_is_not_oracle_known(self):
        assert not self._row(["TG0", "SGR"], "TG0").oracle_known

    def test_regression_exact_predictions_exclude_pruned_rows(self):
        # Pre-fix, the pruned row's best-of-subset "hit" counted as a
        # clean oracle hit and inflated Table-V accuracy.
        sweep = SweepResult()
        sweep.rows.append(self._row(_static_grid(), "TG0"))  # true hit
        sweep.rows.append(self._row(["TG0", "SGR"], "TG0"))  # subset hit
        assert sweep.rows[1].prediction_exact
        assert sweep.exact_predictions == 1
        assert sweep.exact_of_simulated == 2
        assert sweep.oracle_unknown_rows == 1
