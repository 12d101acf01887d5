"""The benchmark's workloads and metrics: the one source of truth.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-benchmark-json``) and every run
refuses to start when the two disagree, so a metric name cited by an
issue or a review is always one the benchmark really prints.  The
catalogue adds what the JSON contract has no room for: on which
workloads each metric is meaningful, what it means there, and — for a
layer metric — which end-to-end metric it should move.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

WORKLOADS = (
    ("fig5-cold",
     "the paper's Figure-5 sweep, serial and uncached as after a model "
     "change: engine feed and trace realization only, no cache/pool/serve"),
    ("prune-pool",
     "pruned all-app sweep on a 2-process pool with a fresh result cache: "
     "tracegen share, pool, pickling, cache writes and model ranking"),
    ("serve-mixed",
     "repro serve daemon: warm cache hits on one connection while the "
     "other pushes never-seen batches through the simulator"),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)
SWEEPS = ("fig5-cold", "prune-pool")
ALL = WORKLOAD_NAMES

# (name, unit, better, bound, workloads, meaning)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, ALL,
     "median of repeated set-ups: imports and graph builds (sweeps, in a "
     "fresh interpreter each); daemon start and cache pre-warm (serve)"),
    ("sweep_s", "s", "lower", 0.25, ALL,
     "median wall of one sweep call: run_sweep (sweeps), one cold "
     "submit_many batch, i.e. a served sweep slice (serve-mixed)"),
    ("cold_units_per_s", "1/s", "higher", 0.25, ALL,
     "never-seen units completed per second of sweep wall"),
    ("request_p50_ms", "ms", "lower", 0.25, ALL,
     "median latency of one caller request: a warm cache hit "
     "(serve-mixed); the whole run_sweep call (sweeps: one request each)"),
    ("request_tail_ms", "ms", "lower", 0.25, ALL,
     "highest of p99/p90/p75/p50 of the same samples with >= 10 samples "
     "beyond it, or their max below 20 samples; the report names it"),
    ("peak_rss_mb", "MB", "lower", 0.15, ALL,
     "peak RSS of the largest process the run started (benchmark, pool "
     "worker or daemon)"),
)

# (name, unit, better, workloads, end-to-end metric it should move)
PER_LAYER = (
    ("graph.build_s", "s", "lower", ALL, "setup_s"),
    ("kernels.iterate_s", "s", "lower", ALL, "sweep_s on fig5-cold"),
    ("tracegen.realize_s", "s", "lower", ALL,
     "sweep_s: prune-pool most, fig5-cold second"),
    ("tracegen.realize_s.push", "s", "lower", ALL, "sweep_s"),
    ("tracegen.realize_s.pull", "s", "lower", ALL, "sweep_s"),
    ("tracegen.ops", "count", "lower", ALL, "none (work done)"),
    ("tracegen.memo_hit_ratio", "ratio", "higher", ALL, "sweep_s"),
    ("engine.feed_s", "s", "lower", ALL,
     "sweep_s on fig5-cold; cold_units_per_s and request_tail_ms on "
     "serve-mixed through the GIL; not request_p50_ms"),
    ("engine.feed_s.gpu", "s", "lower", ALL, "sweep_s"),
    ("engine.feed_s.denovo", "s", "lower", ALL, "sweep_s"),
    ("engine.feed_s.drf0", "s", "lower", ALL, "sweep_s"),
    ("engine.feed_s.drf1", "s", "lower", ALL, "sweep_s"),
    ("engine.feed_s.drfrlx", "s", "lower", ALL, "sweep_s"),
    ("engine.ops", "count", "lower", ALL, "none (work done)"),
    ("engine.us_per_op", "us", "lower", ALL, "sweep_s"),
    ("engine.kernels", "count", "lower", ALL, "none (work done)"),
    ("sweep.plan_s", "s", "lower", SWEEPS, "sweep_s on prune-pool"),
    ("model.prune_s", "s", "lower", SWEEPS, "sweep_s on prune-pool"),
    ("model.config_sims", "count", "lower", ALL, "sweep_s"),
    ("model.kept_frac", "ratio", "lower", ALL, "sweep_s on prune-pool"),
    ("model.exact_predictions", "count", "higher", SWEEPS,
     "none: rows where the tree picked the oracle best (fig5-cold)"),
    ("sweep.aggregate_s", "s", "lower", SWEEPS, "sweep_s"),
    ("taxonomy.profile_s", "s", "lower", SWEEPS, "sweep_s"),
    ("executor.run_plan_s", "s", "lower", ALL, "sweep_s"),
    ("executor.worker_busy_s", "s", "lower", ALL, "sweep_s"),
    ("executor.idle_frac", "ratio", "lower", ALL, "sweep_s on prune-pool"),
    ("executor.first_result_s", "s", "lower", ALL, "none (sweep progress)"),
    ("executor.retries", "count", "lower", ALL, "sweep_s, failed"),
    ("executor.failed", "count", "lower", ALL, "failed"),
    ("cache.get_s", "s", "lower", ALL, "sweep_s on prune-pool"),
    ("cache.misses", "count", "lower", ALL, "none (work done)"),
    ("cache.put_s", "s", "lower", ALL, "sweep_s on prune-pool"),
    ("cache.puts", "count", "lower", ALL, "none (work done)"),
    ("cache.bytes_written", "bytes", "lower", ALL, "sweep_s on prune-pool"),
    ("serve.hit_ms", "ms", "lower", ("serve-mixed",), "request_p50_ms"),
    ("serve.coalesced_ms", "ms", "lower", ("serve-mixed",), "request_tail_ms"),
    ("serve.batch_s", "s", "lower", ("serve-mixed",), "sweep_s"),
    ("serve.hit_ratio", "ratio", "higher", ("serve-mixed",), "request_p50_ms"),
    ("serve.coalesced", "count", "higher", ("serve-mixed",),
     "cold_units_per_s"),
    ("serve.rejected", "count", "lower", ("serve-mixed",), "failed"),
    ("serve.batches", "count", "lower", ("serve-mixed",), "sweep_s"),
    ("serve.units_per_batch", "count", "higher", ("serve-mixed",),
     "cold_units_per_s"),
    ("serve.response_bytes", "bytes", "lower", ("serve-mixed",),
     "request_p50_ms"),
    ("serve.stats_mismatch", "count", "lower", ("serve-mixed",),
     "none: client-observed hit/miss/coalesced counts vs /stats"),
    ("obs.dropped", "count", "lower", ("serve-mixed",), "failed"),
    ("trace.overhead_frac", "ratio", "lower", ALL,
     "none: wrapper cost (spans x measured per-span cost) / traced wall"),
    ("trace.unattributed_frac", "ratio", "lower", ALL,
     "none: root self time / wall, what the trace cannot explain"),
    ("trace.perf_tracegen_ratio", "ratio", "lower", ("fig5-cold",),
     "none: tracegen.realize_s / repro.perf tracegen_s (1 = agree)"),
    ("trace.perf_feed_ratio", "ratio", "lower", ("fig5-cold",),
     "none: engine.feed_s / repro.perf simulate_s (1 = agree)"),
)

END_TO_END_NAMES = tuple(row[0] for row in END_TO_END)
PER_LAYER_NAMES = tuple(row[0] for row in PER_LAYER)
UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalogue defines."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _w, _m in END_TO_END],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _w, _m in PER_LAYER],
    }


def render_benchmark_json() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def check_benchmark_json() -> str | None:
    """None when BENCHMARK.json matches the catalogue, else the reason."""
    try:
        on_disk = json.loads(BENCHMARK_JSON.read_text())
    except (OSError, ValueError) as exc:
        return f"cannot read {BENCHMARK_JSON.name}: {exc}"
    if on_disk != benchmark_json():
        return (f"{BENCHMARK_JSON.name} differs from perfbench/catalogue.py; "
                f"regenerate it with --write-benchmark-json")
    return None


def format_catalogue() -> list[str]:
    """The human-readable metric catalogue (``run.py --catalogue``)."""
    lines = ["workloads:"]
    lines += [f"  {name:<12} {why}" for name, why in WORKLOADS]
    lines.append("end-to-end metrics (tracing off):")
    for name, unit, better, bound, workloads, meaning in END_TO_END:
        lines.append(f"  {name:<18} {unit:<5} {better:<6} bound {bound:<5}"
                     f" [{', '.join(workloads)}]")
        lines.append(f"      {meaning}")
    lines.append("per-layer metrics (--trace 1):")
    for name, unit, better, workloads, moves in PER_LAYER:
        lines.append(f"  {name:<28} {unit:<6} {better:<6} "
                     f"[{', '.join(workloads)}] moves: {moves}")
    return lines
