"""Quickstart: profile a workload, predict a configuration, simulate it.

Runs PageRank on the RAJ stand-in (a circuit-like graph with high reuse
and high imbalance), asks the specialization model which of the 12
system configurations to use, and then verifies the choice against a
timing simulation of the Figure 5 configuration set.

Usage: python examples/quickstart.py
"""

from repro import (
    predict_configuration,
    run_workload,
    scaled_system,
    sim_dataset,
    workload_profile,
)
from repro.graph import DEFAULT_SIM_SCALE
from repro.harness import render_breakdown_bars
from repro.model import explain_prediction


def main() -> None:
    # 1. Load an input graph (a synthetic stand-in for the paper's rajat
    #    circuit graph, scaled for simulation; scale=1 gives full size).
    graph = sim_dataset("RAJ")
    scale = DEFAULT_SIM_SCALE["RAJ"]
    print(f"graph: {graph.name}  |V|={graph.num_vertices} "
          f"|E|={graph.num_edges}")

    # 2. Profile it.  The volume thresholds compare the working set to
    #    the cache sizes, so the profile uses the machine the graph
    #    simulates on: caches scaled like the dataset (DESIGN.md explains
    #    the scaling contract).
    system = scaled_system(scale)
    profile = workload_profile(graph, "PR", system=system)
    print()
    for line in explain_prediction(profile):
        print(" ", line)
    predicted = predict_configuration(profile)

    # 3. Simulate the Figure 5 configurations and compare.
    print("\nsimulating the Figure 5 configurations ...")
    result = run_workload("PR", graph, system=system)
    print(f"\n{'config':>6s} |{'execution time, normalized to TG0':^42s}|")
    for code, value in result.normalized().items():
        breakdown = result.results[code].breakdown
        print(render_breakdown_bars(code, breakdown, value))
    print(f"\nempirical best: {result.best_code}   "
          f"model prediction: {predicted.code}")


if __name__ == "__main__":
    main()
