"""Regenerate tests/data/golden_timing.json from the current simulator.

The golden-equivalence test (TestGoldenEquivalence in
tests/test_perf_hotpath.py) pins exact cycle counts, stall breakdowns,
and memory stats for a small app x graph x config matrix covering all 12
hardware/software points (DRF0/DRF1/DRFrlx x GPU/DeNovo x push/pull) plus
the 6 dynamic ones for CC.  Any simulator or trace-pipeline change that
alters modeled timing fails that test loudly.

Run this ONLY when a timing change is intentional, and say so in the
commit message:

    PYTHONPATH=src python tools/make_golden_fixture.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.graph.datasets import load_dataset
from repro.harness.runner import run_workload
from repro.configs import parse_config
from repro.sim.config import scaled_system

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "data" / \
    "golden_timing.json"

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


def main() -> None:
    payload = build()
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    total = sum(len(w["configs"]) for w in payload["workloads"])
    print(f"wrote {FIXTURE} ({total} pinned configurations)")


if __name__ == "__main__":
    main()
