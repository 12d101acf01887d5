"""Calibration sweep: run all 36 workloads, compare BEST against PRED.

Development tool used while tuning the timing model; the shipping version
of this comparison is benchmarks/bench_fig6_best_vs_pred.py.

Execution goes through repro.runtime, so calibration runs parallelize
(REPRO_JOBS=N) and memoize per-workload results (REPRO_CACHE_DIR=DIR) —
re-running after a model tweak re-simulates nothing and just re-scores,
since predictions are computed model-side.

Usage: python tools/calibrate_sweep.py [GRAPH ...]
"""

import os
import sys
import time

from repro.graph import DEFAULT_SIM_SCALE
from repro.model import predict_configuration
from repro.runtime import (
    ExecutionPlan,
    ResultCache,
    load_graph,
    run_plan,
)
from repro.taxonomy import profile_graph, profile_workload

APPS = ("PR", "SSSP", "MIS", "CLR", "BC", "CC")


def main(keys):
    t00 = time.time()
    match = 0
    total = 0

    plan = ExecutionPlan.for_sweep(keys, APPS)
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    results = run_plan(
        plan,
        jobs=int(os.environ.get("REPRO_JOBS", "1")),
        cache=ResultCache(cache_dir) if cache_dir else None,
        progress=lambda label: print(f"  [{time.time() - t00:.0f}s] {label}",
                                     flush=True),
    )

    units = iter(zip(plan, results))
    for key in keys:
        profile = None
        print("===", key, flush=True)
        for app in APPS:
            spec, result = next(units)
            if profile is None:
                profile = profile_graph(load_graph(spec.graph), spec.system)
            pred = predict_configuration(profile_workload(profile, app)).code
            norm = result.normalized()
            total += 1
            if result.best_code == pred:
                verdict = "MATCH"
            elif norm[pred] / min(norm.values()) < 1.05:
                verdict = "close"
            else:
                verdict = "MISS"
            if verdict != "MISS":
                match += 1
            bars = {k: round(v, 3) for k, v in norm.items()}
            print(f"  {app:5s} {bars} best={result.best_code} "
                  f"pred={pred} {verdict}", flush=True)
    print(f"match-or-close: {match}/{total}, total {time.time() - t00:.0f}s")


if __name__ == "__main__":
    main(sys.argv[1:] or list(DEFAULT_SIM_SCALE))
