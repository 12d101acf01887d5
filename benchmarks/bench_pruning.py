"""Measure prediction-guided sweep pruning against the oracle sweep.

Runs the paper's 36-workload matrix (six graphs x the six Table III
applications) once in full — the oracle: every Figure-5 configuration
simulated — then again under :class:`repro.model.pruning.PruningPolicy`
at several ``(k, explore)`` settings, and reports, per setting:

* achieved-vs-oracle — geomean over the matrix of
  ``oracle best cycles / pruned best cycles`` (1.0 = the pruned subset
  always contained the true winner; the ROADMAP target is >= 0.95);
* simulation cost — configuration-simulations as a fraction of the
  oracle's (deterministic; this is what the CI gate checks) alongside
  the measured trace-gen/simulate/total wall seconds (reported, but
  machine-dependent);
* prediction bookkeeping under restriction — ``exact_of_simulated``
  and ``oracle_unknown_rows``.

Modes mirror ``bench_perf.py``: quick (``REPRO_BENCH_QUICK=1`` or
``--quick``) caps workloads at 2 iterations; full uses each kernel's
default.  Results go to ``BENCH_pruning.json`` (``"schema": 1``).

``--min-achieved R --max-cost F`` is the CI gate: exit 1 unless some
measured setting reaches achieved-vs-oracle >= R at a config-simulation
fraction <= F.

Usage::

    PYTHONPATH=src REPRO_BENCH_QUICK=1 python benchmarks/bench_pruning.py
    PYTHONPATH=src REPRO_BENCH_QUICK=1 python benchmarks/bench_pruning.py \
        --min-achieved 0.95 --max-cost 0.5 --no-write
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_pruning.json"
BENCH_SCHEMA = 1
QUICK_ITERS = 2

#: The (k, explore) settings measured, cheapest first.
SETTINGS = ((1, 0), (1, 1), (2, 1))


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _timed_sweep(max_iters: int | None, **kwargs):
    """One uncached in-process sweep with the perf collector on."""
    from repro.harness import PAPER_APPS, run_sweep
    from repro.perf import collector

    collector.reset()
    collector.enabled = True
    try:
        sweep = run_sweep(apps=PAPER_APPS, max_iters=max_iters,
                          jobs=1, cache=None, **kwargs)
    finally:
        collector.enabled = False
    snap = collector.snapshot()
    phases = {
        "tracegen_s": round(snap["tracegen_s"], 3),
        "simulate_s": round(snap["simulate_s"], 3),
        "total_s": round(snap["total_s"], 3),
    }
    return sweep, phases


def _config_sims(sweep) -> int:
    """Configuration-simulations a sweep performed (its cost, determinist-
    ically: wall seconds vary with the machine, this count never does)."""
    return sum(len(row.workload.results) for row in sweep.rows)


def _oracle_best(sweep) -> dict:
    """(graph, app) -> the oracle sweep's best cycles per workload."""
    return {(row.graph, row.app):
            row.workload.results[row.best].cycles
            for row in sweep.rows}


def _measure_setting(k: int, explore: int, max_iters: int | None,
                     oracle_best: dict, oracle_sims: int,
                     oracle_phases: dict) -> dict:
    sweep, phases = _timed_sweep(max_iters, prune_k=k, explore=explore)
    achieved = []
    worst = (1.0, None)
    for row in sweep.rows:
        pruned_best = row.workload.results[row.best].cycles
        ratio = oracle_best[(row.graph, row.app)] / pruned_best
        achieved.append(ratio)
        if ratio < worst[0]:
            worst = (ratio, f"{row.app}-{row.graph}")
    sims = _config_sims(sweep)
    return {
        "k": k,
        "explore": explore,
        "config_sims": sims,
        "configs_fraction": round(sims / oracle_sims, 3),
        "phases": phases,
        "simulate_fraction": round(
            phases["simulate_s"] / oracle_phases["simulate_s"], 3),
        "total_fraction": round(
            phases["total_s"] / oracle_phases["total_s"], 3),
        "achieved_geomean": round(_geomean(achieved), 4),
        "achieved_worst": round(worst[0], 4),
        "worst_workload": worst[1],
        "exact_of_simulated": sweep.exact_of_simulated,
        "oracle_unknown_rows": sweep.oracle_unknown_rows,
        "rows": len(sweep.rows),
    }


def run_bench(quick: bool) -> dict:
    from repro.perf import commit_stamp

    max_iters = QUICK_ITERS if quick else None
    print("oracle sweep (full Figure-5 grid)", flush=True)
    oracle, oracle_phases = _timed_sweep(max_iters)
    oracle_sims = _config_sims(oracle)
    best = _oracle_best(oracle)

    variants = []
    for k, explore in SETTINGS:
        print(f"pruned sweep k={k} explore={explore}", flush=True)
        variants.append(_measure_setting(k, explore, max_iters, best,
                                         oracle_sims, oracle_phases))

    return {
        "schema": BENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "commit": commit_stamp(REPO_ROOT),
        "workloads": len(oracle.rows),
        "oracle": {
            "config_sims": oracle_sims,
            "phases": oracle_phases,
            "exact_predictions": oracle.exact_predictions,
        },
        "variants": variants,
    }


def check_gate(measured: dict, min_achieved: float,
               max_cost: float) -> int:
    """CI gate: some setting must hit the quality bar under the cost cap.

    Cost is judged on the deterministic configuration-simulation
    fraction (wall seconds are reported but machine-dependent).
    """
    for variant in measured["variants"]:
        ok = (variant["achieved_geomean"] >= min_achieved
              and variant["configs_fraction"] <= max_cost)
        print(f"  k={variant['k']} explore={variant['explore']}: "
              f"achieved {variant['achieved_geomean']:.4f} "
              f"(worst {variant['achieved_worst']:.4f} "
              f"on {variant['worst_workload']}), "
              f"cost {variant['configs_fraction']:.1%} of oracle "
              f"config-sims ({variant['total_fraction']:.1%} of wall)"
              + ("  <- gate satisfied" if ok else ""))
        if ok:
            print(f"pruning gate: OK (>= {min_achieved:.0%} of oracle at "
                  f"<= {max_cost:.0%} cost)")
            return 0
    print(f"pruning gate: FAILED — no setting reached "
          f">= {min_achieved:.0%} of oracle within "
          f"<= {max_cost:.0%} of its config-sims", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="2-iteration smoke matrix (also enabled by "
                             "REPRO_BENCH_QUICK=1)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the measurement JSON "
                             "(default: BENCH_pruning.json at the repo "
                             "root)")
    parser.add_argument("--no-write", action="store_true",
                        help="measure and report only; leave the JSON "
                             "untouched")
    parser.add_argument("--min-achieved", type=float, default=None,
                        metavar="R",
                        help="gate: require achieved-vs-oracle geomean "
                             ">= R for some setting (e.g. 0.95)")
    parser.add_argument("--max-cost", type=float, default=0.5,
                        metavar="F",
                        help="gate: the qualifying setting must cost <= F "
                             "of the oracle's config-simulations "
                             "(default 0.5)")
    args = parser.parse_args(argv)

    quick = args.quick or os.environ.get("REPRO_BENCH_QUICK", "") == "1"
    measured = run_bench(quick)

    oracle = measured["oracle"]
    print(f"\nmode={measured['mode']} workloads={measured['workloads']} "
          f"oracle config-sims={oracle['config_sims']} "
          f"oracle total {oracle['phases']['total_s']:.3f}s")

    status = 0
    if args.min_achieved is not None:
        status = check_gate(measured, args.min_achieved, args.max_cost)
    else:
        for variant in measured["variants"]:
            print(f"  k={variant['k']} explore={variant['explore']}: "
                  f"achieved {variant['achieved_geomean']:.4f}, "
                  f"cost {variant['configs_fraction']:.1%} of oracle "
                  f"config-sims")

    if not args.no_write:
        args.output.write_text(json.dumps(measured, indent=1) + "\n")
        print(f"wrote {args.output}")
    return status


if __name__ == "__main__":
    sys.exit(main())
