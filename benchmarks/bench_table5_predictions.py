"""Table V: model-predicted best configuration per workload.

The decision tree consumes only the six taxonomy parameters, so this
regenerates the paper's prediction grid from the published classes and
checks it cell by cell, then repeats the predictions from our synthetic
stand-ins' *measured* classes.
"""

from repro.graph import DEFAULT_SIM_SCALE, PAPER_DATASETS, load_dataset
from repro.graph.stats import DegreeStats
from repro.harness import PAPER_APPS as APPS
from repro.harness import render_table
from repro.model import predict_configuration
from repro.sim.config import scaled_system
from repro.taxonomy import (
    GraphProfile,
    Level,
    ReuseMetrics,
    profile_graph,
    profile_workload,
)

from .conftest import emit

PAPER_TABLE5 = {
    "AMZ": ("SGR", "SGR", "SGR", "SGR", "SGR", "DD1"),
    "DCT": ("SGR", "SGR", "SGR", "SGR", "SGR", "DD1"),
    "EML": ("SGR", "SGR", "SGR", "SGR", "SGR", "DD1"),
    "OLS": ("SDR", "SDR", "TG0", "TG0", "SDR", "DD1"),
    "RAJ": ("SDR", "SDR", "SDR", "SDR", "SDR", "DD1"),
    "WNG": ("SGR", "SGR", "SGR", "SGR", "SGR", "DD1"),
}


def _profile_from_classes(name, volume, reuse, imbalance):
    return GraphProfile(
        name=name,
        stats=DegreeStats(1, 1, 1, 1.0, 0.0),
        volume_bytes=0.0,
        reuse=ReuseMetrics(0.0, 0.0, 0.5),
        imbalance=0.0,
        volume_class=Level(volume),
        reuse_class=Level(reuse),
        imbalance_class=Level(imbalance),
    )


def test_table5_predictions_from_paper_classes(benchmark, results_dir):
    def predict_grid():
        grid = {}
        for key, dataset in PAPER_DATASETS.items():
            ref = dataset.paper
            profile = _profile_from_classes(
                key, ref.volume_class, ref.reuse_class, ref.imbalance_class
            )
            grid[key] = tuple(
                predict_configuration(profile_workload(profile, app)).code
                for app in APPS
            )
        return grid

    grid = benchmark(predict_grid)

    rows = []
    exact = 0
    for key, predictions in grid.items():
        row = {"Graph": key}
        for app, code in zip(APPS, predictions):
            row[app] = code
            exact += code == PAPER_TABLE5[key][APPS.index(app)]
        rows.append(row)
    text = render_table(
        rows, title="Table V: model predictions (from the paper's classes)"
    )
    text += f"\n\nAgreement with the paper's Table V: {exact}/36"
    emit(results_dir, "table5_predictions.txt", text)
    assert exact == 36


def test_table5_predictions_from_measured_classes(benchmark, results_dir):
    profiles = {}
    for key in PAPER_DATASETS:
        scale = DEFAULT_SIM_SCALE[key]
        profiles[key] = profile_graph(load_dataset(key, scale=scale),
                                      scaled_system(scale))

    def predict_grid():
        rows = []
        mismatches = 0
        for key, profile in profiles.items():
            row = {"Graph": key}
            for i, app in enumerate(APPS):
                code = predict_configuration(
                    profile_workload(profile, app)
                ).code
                row[app] = code
                mismatches += code != PAPER_TABLE5[key][i]
            rows.append(row)
        return rows, mismatches

    rows, mismatches = benchmark(predict_grid)
    text = render_table(
        rows,
        title="Table V: model predictions (from measured stand-in classes)",
    )
    text += f"\n\nCells differing from the paper's Table V: {mismatches}/36"
    emit(results_dir, "table5_predictions_measured.txt", text)
    assert mismatches == 0
