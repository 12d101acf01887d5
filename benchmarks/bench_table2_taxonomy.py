"""Table II: input-graph statistics and taxonomy classifications.

Regenerates the paper's Table II for the synthetic stand-ins — both the
raw structural columns and the volume/reuse/imbalance classes — and
benchmarks the (vectorized) taxonomy computation itself.
"""

import pytest

from repro.graph import DEFAULT_SIM_SCALE, PAPER_DATASETS, load_dataset
from repro.harness import render_table
from repro.sim.config import scaled_system
from repro.taxonomy import profile_graph

from .conftest import emit


@pytest.fixture(scope="module")
def graphs():
    return {
        key: load_dataset(key, scale=DEFAULT_SIM_SCALE[key])
        for key in PAPER_DATASETS
    }


def _profile(key, graph):
    return profile_graph(graph, scaled_system(DEFAULT_SIM_SCALE[key]))


def test_table2_taxonomy(benchmark, results_dir, graphs):
    profiles = benchmark(
        lambda: {key: _profile(key, g) for key, g in graphs.items()}
    )

    rows = []
    for key, profile in profiles.items():
        ref = PAPER_DATASETS[key].paper
        row = profile.as_row()
        row["Paper classes"] = (
            f"{ref.volume_class}/{ref.reuse_class}/{ref.imbalance_class}"
        )
        row["Classes match"] = (
            "yes"
            if (profile.volume_class.value == ref.volume_class
                and profile.reuse_class.value == ref.reuse_class
                and profile.imbalance_class.value == ref.imbalance_class)
            else "NO"
        )
        rows.append(row)

    text = render_table(
        rows,
        title=("Table II: graph statistics + taxonomy "
               "(synthetic stand-ins at simulation scale)"),
    )
    paper_rows = [
        {
            "Graph": key,
            "Vertices": ref.vertices,
            "Edges": ref.edges,
            "Max Deg": ref.max_degree,
            "Avg Deg": ref.avg_degree,
            "Volume (KB)": f"{ref.volume_kb} ({ref.volume_class})",
            "Reuse": f"{ref.reuse} ({ref.reuse_class})",
            "Imbalance": f"{ref.imbalance} ({ref.imbalance_class})",
        }
        for key, ref in ((k, d.paper) for k, d in PAPER_DATASETS.items())
    ]
    text += "\n\n" + render_table(
        paper_rows, title="Table II (paper, for reference)"
    )
    emit(results_dir, "table2_taxonomy.txt", text)

    assert all(row["Classes match"] == "yes" for row in rows)
