"""Generalization study: the decision tree on the four added workloads.

The model (and its thresholds) were fit to the paper's six applications.
BFS, KC, TC, and LP were added later (the report's title still calls
them the frontier-IR workloads) and were never consulted while building the tree — so comparing the tree's predictions
against each new workload's *realized* best configuration measures how
well the taxonomy generalizes beyond its training matrix (the experiment
the paper's Table V performs for its own six apps).

This sweep is separate from the shared Figure-5 sweep on purpose: the
paper benchmarks are pinned to the original six applications
(``PAPER_APPS``), while this one covers exactly the registry's
additions.
"""

import math

from repro.harness import GRAPHS, render_table
from repro.harness.sweep import APPS, PAPER_APPS

from .conftest import emit, get_sweep

#: Everything the registry grew beyond the paper's matrix.
NEW_APPS = tuple(app for app in APPS if app not in PAPER_APPS)


def _geomean(values):
    values = [v for v in values if not math.isnan(v)]
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_generalization_predictions(benchmark, results_dir):
    sweep = benchmark.pedantic(get_sweep, args=(NEW_APPS,), rounds=1,
                               iterations=1)
    total = len(GRAPHS) * len(NEW_APPS)
    assert len(sweep.rows) == total

    rows = []
    gaps = []
    for graph in GRAPHS:
        row = {"Graph": graph}
        for app in NEW_APPS:
            r = sweep.row(graph, app)
            # '=' is an exact hit against the full grid; '~' means the
            # prediction matched the best *simulated* config but the
            # row was pruned, so the true optimum may never have run.
            if r.prediction_exact:
                marker = "=" if r.oracle_known else "~"
            else:
                marker = ">"
            row[app] = f"{r.predicted}{marker}{r.best}"
            gaps.append(r.prediction_gap)
        rows.append(row)

    exact = sweep.exact_predictions
    close = sum(1 for r in sweep.rows
                if not r.prediction_exact and r.prediction_gap <= 1.05)
    worst = max(gaps)
    per_app = []
    for app in NEW_APPS:
        app_rows = [r for r in sweep.rows if r.app == app]
        per_app.append({
            "App": app,
            "Exact": f"{sum(r.prediction_exact for r in app_rows)}"
                     f"/{len(app_rows)}",
            "GapGeomean": f"{_geomean([r.prediction_gap for r in app_rows]):.3f}",
            "GapWorst": f"{max(r.prediction_gap for r in app_rows):.3f}",
        })

    text = render_table(
        rows,
        title=("Table V (generalization): predicted vs realized best "
               "configuration on the frontier-IR workloads"),
    )
    text += "\n\n" + render_table(per_app, title="Per-application gap")
    text += (
        "\n\ncell format: PREDICTED=REALIZED (exact), "
        "PREDICTED~REALIZED (best of a pruned subset), or "
        "PREDICTED>REALIZED (miss)"
        f"\nexact predictions: {exact}/{total} "
        f"(+{close} more within 5% of the best)"
        + (f"\noracle-unknown rows (pruned; counted as "
           f"best-of-simulated only): {sweep.oracle_unknown_rows}"
           if sweep.oracle_unknown_rows else "")
        + f"\nprediction gap (predicted / best cycles): "
        f"geomean {_geomean(gaps):.3f}, worst {worst:.3f}"
        "\n\nThe decision tree never saw these applications, so every"
        "\nmiss above is a genuine generalization gap.  Two systematic"
        "\nones show up:"
        "\n * BFS claims unvisited vertices with a CAS whose return"
        "\n   value feeds control flow, so DRFrlx cannot overlap the"
        "\n   atomic and SGR ~= SG1 — the tree predicts relaxation"
        "\n   (near-zero cost, but not the realized best).  The paper's"
        "\n   six parameters do not encode value-consuming atomics"
        "\n   (Section IV-A4's limit on what relaxation buys)."
        "\n * TC and LP run a single dense kernel over a full frontier"
        "\n   both sides; with no frontier to elide, pull's atomic-free"
        "\n   gather (TG0) beats the predicted push configurations —"
        "\n   the control=symmetric branch of the tree was fit to PR,"
        "\n   whose per-edge division still favors push hoisting."
    )
    emit(results_dir, "table5_generalization.txt", text)

    # The tree must still transfer meaningfully: it gets a nontrivial
    # share of the new matrix exactly right, its typical prediction
    # costs < 1.5x the empirical best, and no single prediction is a
    # catastrophe.
    assert exact >= total // 4
    assert _geomean(gaps) < 1.5
    assert worst < 4.0


def test_generalization_rows_simulate_all_configs(benchmark, results_dir):
    sweep = benchmark.pedantic(get_sweep, args=(NEW_APPS,), rounds=1,
                               iterations=1)
    for row in sweep.rows:
        # All four additions are static-traversal apps: the Figure 5
        # static configuration set, with the TG0 normalization bar.
        assert set(row.workload.results) == {"TG0", "SG1", "SGR",
                                             "SD1", "SDR"}
        assert row.baseline == "TG0"
        assert all(v > 0 for v in row.normalized().values())
