"""The repository benchmark (see perfbench/README.md).

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all        # every workload, a table
  python3 perfbench/run.py --catalogue           # every metric, by name
  python3 perfbench/run.py --write-benchmark-json
  python3 perfbench/run.py --make-reference      # perfbench/reference.json

A run prints a report (provenance, each metric with its unit and sample
count, divergences) and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits 1 when
an output check fails and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalogue  # noqa: E402

ROOT = catalogue.ROOT


def nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail(samples: list[float]) -> tuple[str, float]:
    """Highest of p99/p90/p75/p50 with >= 10 samples beyond it."""
    ordered = sorted(samples)
    for q in (99, 90, 75, 50):
        if len(ordered) - math.ceil(q / 100 * len(ordered)) >= 10:
            return f"p{q}", nearest_rank(ordered, q)
    return "max", ordered[-1]


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import SERVE_ITERS, SWEEP_ITERS

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a plain checkout: the source digest identifies it
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    try:
        from repro.sim.config import resolve_engine
        engine = resolve_engine()
    except ImportError:  # single-engine simulator: nothing to resolve
        engine = "scalar"
    return {
        "workload": workload,
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "engine": engine,
        "iteration_cap": (SERVE_ITERS if workload == "serve-mixed"
                          else SWEEP_ITERS),
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_context().get_start_method(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    workdir = workloads.WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "serve-mixed":
            out = workloads.run_serve_workload(seed, seconds, trace, workdir)
        else:
            out = workloads.run_sweep_workload(workload, seed, seconds, trace,
                                               workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workloads.WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there

    print("provenance: " + json.dumps(provenance(workload, seed, seconds,
                                                 trace)))
    metrics: dict[str, float] = {}
    if trace:
        for name in catalogue.PER_LAYER_NAMES:
            metrics[name] = float(out.metrics.get(name, 0.0))
            print(f"  {name:<28} {metrics[name]:>14.6g} "
                  f"{catalogue.UNITS[name]}")
    else:
        samples = out.samples
        label, metrics["request_tail_ms"] = tail(samples["request_ms"])
        metrics["request_p50_ms"] = statistics.median(samples["request_ms"])
        metrics["setup_s"] = statistics.median(samples["setup_s"])
        metrics["sweep_s"] = statistics.median(samples["sweep_s"])
        metrics["cold_units_per_s"] = out.metrics["cold_units_per_s"]
        metrics["peak_rss_mb"] = workloads.peak_rss_mb()
        counts = {"request_tail_ms": len(samples["request_ms"]),
                  "request_p50_ms": len(samples["request_ms"]),
                  "setup_s": len(samples["setup_s"]),
                  "sweep_s": len(samples["sweep_s"])}
        for name in catalogue.END_TO_END_NAMES:
            detail = f"n={counts[name]}" if name in counts else ""
            if name == "request_tail_ms":
                detail += f" ({label})"
            if name == "setup_s":
                detail += " " + str([round(x, 3) for x in samples[name]])
            print(f"  {name:<18} {metrics[name]:>12.4f} "
                  f"{catalogue.UNITS[name]:<5} {detail}")
    for note in out.notes:
        print(f"  note: {note}")
    for problem in out.problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not out.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": catalogue.UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, then one table."""
    status = 0
    rows = {}
    for workload in catalogue.WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True)
        print(f"== {workload}")
        print(proc.stdout + proc.stderr, end="")
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            rows[workload] = json.loads(lines[-1])
    names = (catalogue.PER_LAYER_NAMES if trace
             else catalogue.END_TO_END_NAMES)
    print(f"{'metric':<28} {'unit':<6}"
          + "".join(f"{w:>14}" for w in catalogue.WORKLOAD_NAMES))
    for name in names:
        cells = "".join(
            f"{rows[w]['metrics'][name]['value']:>14.4g}" if w in rows
            else f"{'-':>14}" for w in catalogue.WORKLOAD_NAMES)
        print(f"{name:<28} {catalogue.UNITS[name]:<6}{cells}")
    return status


def main(argv: list[str] | None = None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # Modeled results depend on str hash order (runner.py iterates a
        # set of trace directions), so every process of a run — this one,
        # forked pool workers, the daemon, set-up probes — gets one fixed
        # hash seed; otherwise the reference digests could not hold.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable,
                 [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=catalogue.WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=catalogue.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--catalogue", action="store_true")
    parser.add_argument("--write-benchmark-json", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--setup-probe", choices=catalogue.SWEEPS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    if args.catalogue:
        print("\n".join(catalogue.format_catalogue()))
        return 0
    if args.write_benchmark_json:
        catalogue.BENCHMARK_JSON.write_text(catalogue.render_benchmark_json())
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print("error: the program under test (src/repro) is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    problem = catalogue.check_benchmark_json()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    import workloads

    if args.setup_probe:
        workloads.setup_probe(args.seed)
        return 0
    if args.make_reference:
        workloads.REFERENCE.write_text(
            json.dumps(workloads.make_reference(), indent=1) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
