"""Time the Figure 5 sweep's hot phases and track them in BENCH_sweep.json.

This is the perf-trajectory harness: it runs the sweep uncached and
in-process with the :mod:`repro.perf` collector enabled, reports wall
seconds split into trace generation vs. simulation, and writes (or
checks against) ``BENCH_sweep.json``.

Modes:

* quick (``REPRO_BENCH_QUICK=1`` or ``--quick``) — 2 iterations per
  workload; the CI smoke configuration.
* full — each app's default iteration count; the number the ROADMAP's
  "fast as the hardware allows" goal is judged by.

JSON schema (``"schema": 1``)::

    {
      "schema": 1,
      "mode": "quick" | "full",
      "commit": "<git short sha, '-dirty' if uncommitted, or 'unknown'>",
      "rows": <workloads swept>,
      "ops": <op tuples executed across all configurations>,
      "ops_per_sec": <ops / simulate_s>,
      "phases": {"tracegen_s": .., "simulate_s": .., "total_s": ..},
      "baseline": { ... same phase fields for the pre-optimization
                    implementation, plus "commit" and "speedup" ... }
    }

``--check-against FILE`` compares the measured quick-sweep total against
the committed ``phases.total_s`` and exits 1 on a regression beyond
``--tolerance`` (default 0.25, the CI gate).

Usage::

    PYTHONPATH=src REPRO_BENCH_QUICK=1 python benchmarks/bench_perf.py
    PYTHONPATH=src python benchmarks/bench_perf.py --check-against BENCH_sweep.json --no-write
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_sweep.json"
BENCH_SCHEMA = 1
QUICK_ITERS = 2


def _commit() -> str:
    try:
        # "-dirty" marks a measurement of uncommitted changes on top of
        # the named commit.
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_bench(quick: bool) -> dict:
    """Run the sweep with perf collection on; return the measurement."""
    from repro.harness import PAPER_APPS, run_sweep
    from repro.perf import collector

    collector.reset()
    collector.enabled = True
    try:
        # Pinned to the paper's six applications: the committed
        # BENCH_sweep.json baselines were measured on this matrix, and
        # growing the default app list must not read as a regression.
        sweep = run_sweep(
            apps=PAPER_APPS,
            max_iters=QUICK_ITERS if quick else None,
            jobs=1,
            cache=None,
            progress=lambda label: print(f"  [bench] {label}", flush=True),
        )
    finally:
        collector.enabled = False
    snap = collector.snapshot()
    return {
        "schema": BENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "commit": _commit(),
        "rows": len(sweep.rows),
        "ops": snap["ops"],
        "ops_per_sec": round(snap["ops_per_sec"], 1),
        "phases": {
            "tracegen_s": round(snap["tracegen_s"], 3),
            "simulate_s": round(snap["simulate_s"], 3),
            "total_s": round(snap["total_s"], 3),
        },
    }


def check_regression(measured: dict, reference_path: Path,
                     tolerance: float) -> int:
    """Exit code for the CI gate: 1 when wall clock regressed."""
    reference = json.loads(reference_path.read_text())
    if reference.get("mode") != measured["mode"]:
        print(f"note: reference mode {reference.get('mode')!r} != "
              f"measured mode {measured['mode']!r}; comparing anyway")
    committed = reference["phases"]["total_s"]
    observed = measured["phases"]["total_s"]
    limit = committed * (1.0 + tolerance)
    verdict = "OK" if observed <= limit else "REGRESSION"
    print(f"perf check: measured {observed:.3f}s vs committed "
          f"{committed:.3f}s (limit {limit:.3f}s, "
          f"tolerance {tolerance:.0%}): {verdict}")
    return 0 if observed <= limit else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="2-iteration smoke sweep (also enabled by "
                             "REPRO_BENCH_QUICK=1)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the measurement JSON "
                             "(default: BENCH_sweep.json at the repo root)")
    parser.add_argument("--no-write", action="store_true",
                        help="measure and report only; leave the JSON "
                             "untouched")
    parser.add_argument("--check-against", type=Path, default=None,
                        metavar="FILE",
                        help="compare against a committed BENCH_sweep.json "
                             "and exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative wall-clock regression for "
                             "--check-against (default 0.25)")
    args = parser.parse_args(argv)

    quick = args.quick or os.environ.get("REPRO_BENCH_QUICK", "") == "1"
    measured = run_bench(quick)

    phases = measured["phases"]
    print(f"\nmode={measured['mode']} rows={measured['rows']} "
          f"ops={measured['ops']}")
    print(f"trace-gen {phases['tracegen_s']:.3f}s  "
          f"simulate {phases['simulate_s']:.3f}s  "
          f"total {phases['total_s']:.3f}s  "
          f"({measured['ops_per_sec']:,.0f} ops/s)")

    status = 0
    if args.check_against is not None:
        status = check_regression(measured, args.check_against,
                                  args.tolerance)

    if not args.no_write:
        # Preserve the committed baseline (pre-optimization) section and
        # refresh the speedup it implies.
        if args.output.exists():
            try:
                previous = json.loads(args.output.read_text())
                baseline = previous.get("baseline")
            except ValueError:
                baseline = None
            if baseline is not None:
                baseline = dict(baseline)
                base_total = baseline.get("phases", {}).get("total_s")
                if base_total and phases["total_s"] > 0:
                    # speedup and note MUST quote the same phase-timer
                    # pair: the baseline's in-process total vs this run's
                    # in-process total.  (An earlier artifact mixed a
                    # separately-measured wall pair into the note while
                    # computing speedup from the phase totals — the two
                    # told different stories.)
                    speedup = round(base_total / phases["total_s"], 2)
                    baseline["speedup"] = speedup
                    baseline["note"] = (
                        "seed commit timed with the same in-process phase "
                        f"timers as 'phases'; matched total pair "
                        f"{base_total:.3f}s -> {phases['total_s']:.3f}s "
                        f"({speedup:.2f}x)")
                measured["baseline"] = baseline
        args.output.write_text(json.dumps(measured, indent=1) + "\n")
        print(f"wrote {args.output}")
    return status


if __name__ == "__main__":
    sys.exit(main())
