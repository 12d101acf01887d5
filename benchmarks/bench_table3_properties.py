"""Table III: algorithmic properties, paper rows plus four additions.

The first six rows must match the paper's Table III cell for cell; the
added workloads (BFS, KC, TC, LP) extend the table with the
properties their kernel classes declare, which the generalization study
feeds to the unmodified decision tree.
"""

from repro.harness import render_table
from repro.taxonomy import APP_PROPERTIES

from .conftest import emit

PAPER_TABLE3 = {
    "PR": ("Static", "Symmetric", "Source"),
    "SSSP": ("Static", "Source", "Source"),
    "MIS": ("Static", "Symmetric", "Symmetric"),
    "CLR": ("Static", "Symmetric", "Target"),
    "BC": ("Static", "Source", "Symmetric"),
    "CC": ("Dynamic", "-", "-"),
}

NEW_TABLE3 = {
    "BFS": ("Static", "Source", "Source"),
    "KC": ("Static", "Source", "Symmetric"),
    "TC": ("Static", "Symmetric", "Symmetric"),
    "LP": ("Static", "Symmetric", "Source"),
}


def test_table3_properties(benchmark, results_dir):
    rows = benchmark(
        lambda: [props.as_row() for props in APP_PROPERTIES.values()]
    )
    expected_all = {**PAPER_TABLE3, **NEW_TABLE3}
    assert set(row["App"] for row in rows) == set(expected_all)
    for row in rows:
        expected = expected_all[row["App"]]
        assert (row["Traversal"], row["Control"], row["Information"]) == \
            expected, f"Table III mismatch for {row['App']}"
    text = render_table(
        rows,
        title="Table III: algorithmic properties (paper apps + IR additions)",
    )
    emit(results_dir, "table3_properties.txt", text)
