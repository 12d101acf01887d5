"""Regenerate the golden fixtures in tests/data from the current code.

``golden_timing.json`` pins modeled timing; ``trace_digests.json`` pins
the realized traces themselves.

The golden-equivalence test (TestGoldenEquivalence in
tests/test_perf_hotpath.py) pins exact cycle counts, stall breakdowns,
and memory stats for a small app x graph x config matrix covering all 12
hardware/software points (DRF0/DRF1/DRFrlx x GPU/DeNovo x push/pull) plus
the 6 dynamic ones for CC.  Any simulator or trace-pipeline change that
alters modeled timing fails that test loudly.

The trace-digest test (TestTraceDigests in tests/test_tracegen.py) pins
the sha256 of every realized ``(trace.name, trace.blocks)`` for every
registered app on three small graphs, each direction the app's traversal
allows, plus the realization memo's hit/miss counts.  It catches a
trace-realization change before it reaches the simulator, including on
the apps the timing matrix does not cover.

Run this ONLY when a timing or trace change is intentional, and say so
in the commit message:

    PYTHONPATH=src python tools/make_golden_fixture.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.graph.datasets import load_dataset
from repro.harness.runner import run_workload
from repro.configs import parse_config
from repro.kernels import KERNELS, TraceBuilder, make_kernel
from repro.sim.config import scaled_system

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
FIXTURE = DATA / "golden_timing.json"
DIGESTS = DATA / "trace_digests.json"

#: The full 12-point design space for static apps: push/pull x GPU/DeNovo
#: x DRF0/DRF1/DRFrlx.  (Figure 5 only shows a subset; the fixture pins
#: every combination so no optimization can hide behind the subset.)
STATIC_CONFIGS = [d + c + m for d in "TS" for c in "GD" for m in "01R"]
DYNAMIC_CONFIGS = ["D" + c + m for c in "GD" for m in "01R"]

#: (app, dataset key, scale, config codes) — small graphs, 2 iterations.
MATRIX = [
    ("PR", "EML", 64, STATIC_CONFIGS),
    ("SSSP", "DCT", 32, STATIC_CONFIGS),
    ("CC", "WNG", 32, DYNAMIC_CONFIGS),
]

MAX_ITERS = 2

#: (dataset key, scale) graphs whose traces ``trace_digests.json`` pins.
DIGEST_GRAPHS = [("DCT", 32), ("WNG", 32), ("EML", 64)]


def build() -> dict:
    workloads = []
    for app, key, scale, codes in MATRIX:
        graph = load_dataset(key, scale=scale)
        system = scaled_system(scale)
        result = run_workload(
            app, graph,
            configs=[parse_config(code) for code in codes],
            system=system,
            max_iters=MAX_ITERS,
        )
        workloads.append({
            "app": app,
            "dataset": key,
            "scale": scale,
            "max_iters": MAX_ITERS,
            "configs": codes,
            "results": {code: result.results[code].to_dict()
                        for code in codes},
        })
    return {"version": 1, "workloads": workloads}


def trace_digests(app: str, key: str, scale: int) -> dict:
    """Digest every trace of one workload, realized as ``run_workload`` does.

    One builder serves both directions, interleaved per iteration, so the
    first-touch region layout and the memo see the sweep's exact order.
    """
    graph = load_dataset(key, scale=scale)
    kernel = make_kernel(app, graph)
    builder = TraceBuilder(graph, scaled_system(scale))
    directions = ("push", "pull") if kernel.traversal == "static" \
        else ("push",)
    hashers = {d: hashlib.sha256() for d in directions}
    for iteration in kernel.iterations(MAX_ITERS):
        for direction in directions:
            for trace in builder.realize_iteration(iteration, direction):
                hashers[direction].update(
                    repr((trace.name, trace.blocks)).encode())
    return {
        "digests": {d: h.hexdigest() for d, h in hashers.items()},
        "memo_hits": builder.memo_hits,
        "memo_misses": builder.memo_misses,
    }


def build_digests() -> dict:
    return {
        "version": 1,
        "max_iters": MAX_ITERS,
        "workloads": {
            f"{app}/{key}@{scale}": trace_digests(app, key, scale)
            for app in KERNELS
            for key, scale in DIGEST_GRAPHS
        },
    }


def _write(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main() -> None:
    payload = build()
    _write(FIXTURE, payload)
    total = sum(len(w["configs"]) for w in payload["workloads"])
    print(f"wrote {FIXTURE} ({total} pinned configurations)")
    digests = build_digests()
    _write(DIGESTS, digests)
    print(f"wrote {DIGESTS} ({len(digests['workloads'])} pinned workloads)")


if __name__ == "__main__":
    main()
