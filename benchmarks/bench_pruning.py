"""Measure prediction-guided sweep pruning against the oracle sweep.

Runs the paper's 36-workload matrix (six graphs x the six Table III
applications) once in full — the oracle: every Figure-5 configuration
simulated — then again under :class:`repro.model.pruning.PruningPolicy`
at several ``(k, explore)`` settings, and reports, per setting:

* achieved-vs-oracle — geomean over the matrix of
  ``oracle best cycles / pruned best cycles`` (1.0 = the pruned subset
  always contained the true winner; the ROADMAP target is >= 0.95);
* simulation cost — configuration-simulations as a fraction of the
  oracle's and the ops those simulations executed (both deterministic)
  alongside the measured trace-gen/simulate/total wall seconds
  (reported, but machine-dependent);
* prediction bookkeeping under restriction — ``exact_of_simulated``
  and ``oracle_unknown_rows``.

Quick mode (``REPRO_BENCH_QUICK=1`` or ``--quick``) caps workloads at 2
iterations; full uses each kernel's default.  Results go to
``BENCH_pruning.json`` (``"schema": 1``).

``--min-achieved R --max-cost F`` is the quality gate: exit 1 unless
some measured setting reaches achieved-vs-oracle >= R at a
config-simulation fraction <= F.

``--check-against FILE`` is the modeled-work gate: exit 1 when any
deterministic field (:data:`ORACLE_FIELDS`, :data:`VARIANT_FIELDS`, the
mode and the workload count) differs from FILE, naming each such field.
Wall-clock fields are reported, never compared.

Usage::

    PYTHONPATH=src REPRO_BENCH_QUICK=1 python benchmarks/bench_pruning.py
    PYTHONPATH=src REPRO_BENCH_QUICK=1 python benchmarks/bench_pruning.py \
        --min-achieved 0.95 --max-cost 0.5 \
        --check-against BENCH_pruning.json --no-write
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

#: The oracle's and each variant's fields that depend only on the code
#: (a variant is named by its ``k`` and ``explore``): ``--check-against``
#: compares exactly these, plus ``mode`` and ``workloads``.
ORACLE_FIELDS = ("ops", "config_sims", "exact_predictions")
VARIANT_FIELDS = ("ops", "config_sims", "configs_fraction",
                  "achieved_geomean", "achieved_worst", "worst_workload",
                  "exact_of_simulated", "oracle_unknown_rows", "rows")
_MISSING = "<missing>"


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _timed_sweep(max_iters: int | None, **kwargs):
    """One uncached in-process sweep with the perf collector on: the
    sweep, its ops and its wall-clock phases."""
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
    return sweep, snap["ops"], phases


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
    sweep, ops, phases = _timed_sweep(max_iters, prune_k=k,
                                      explore=explore)
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
        "ops": ops,
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
    oracle, oracle_ops, oracle_phases = _timed_sweep(max_iters)
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
            "ops": oracle_ops,
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


def _deterministic(measured: dict) -> dict:
    """Every compared field of a measurement, by dotted name (an absent
    field reads as :data:`_MISSING`, so a dropped field differs too)."""
    fields = {name: measured.get(name, _MISSING)
              for name in ("mode", "workloads")}
    oracle = measured.get("oracle", {})
    for name in ORACLE_FIELDS:
        fields[f"oracle.{name}"] = oracle.get(name, _MISSING)
    for variant in measured.get("variants", ()):
        tag = f"k={variant.get('k')},explore={variant.get('explore')}"
        for name in VARIANT_FIELDS:
            fields[f"variants[{tag}].{name}"] = variant.get(name, _MISSING)
    return fields


def compare_measurements(measured: dict, reference: dict) -> list[str]:
    """One line per deterministic field where ``measured`` differs from
    ``reference``, naming the field (empty when the modeled work and
    quality are identical)."""
    ours, theirs = _deterministic(measured), _deterministic(reference)
    lines = []
    for name in sorted(ours.keys() | theirs.keys()):
        old, new = theirs.get(name, _MISSING), ours.get(name, _MISSING)
        if old != new:
            lines.append(f"{name}: {old!r} committed, {new!r} measured")
    return lines


def check_against(measured: dict, reference_path: Path) -> int:
    """Exit code for the modeled-work gate: 1 on any differing field."""
    differences = compare_measurements(
        measured, json.loads(reference_path.read_text()))
    for line in differences:
        print(f"  differs: {line}", file=sys.stderr)
    print(f"modeled-work check against {reference_path}: "
          + (f"FAILED ({len(differences)} field(s) differ)" if differences
             else "OK (every deterministic field identical)"))
    return 1 if differences else 0


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
    parser.add_argument("--check-against", type=Path, default=None,
                        metavar="FILE",
                        help="exit 1 when any deterministic field (ops, "
                             "config-sims, prediction counts, achieved "
                             "quality) differs from this committed "
                             "measurement")
    args = parser.parse_args(argv)

    quick = args.quick or os.environ.get("REPRO_BENCH_QUICK", "") == "1"
    measured = run_bench(quick)

    oracle = measured["oracle"]
    print(f"\nmode={measured['mode']} workloads={measured['workloads']} "
          f"oracle ops={oracle['ops']} "
          f"config-sims={oracle['config_sims']} "
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
    if args.check_against is not None:
        status = check_against(measured, args.check_against) or status

    if not args.no_write:
        args.output.write_text(json.dumps(measured, indent=1) + "\n")
        print(f"wrote {args.output}")
    return status


if __name__ == "__main__":
    sys.exit(main())
