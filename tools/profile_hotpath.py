"""cProfile the simulator's hot path on one workload.

Companion to ``perfbench/run.py``: perfbench tracks wall-clock trends
in alternating parent/change pairs; this tool answers *where* the time
goes when a trend moves.  It runs one workload (default: PR on EML, 2
iterations, the full static config matrix) under cProfile and prints
the top functions.

cProfile inflates call-heavy code severalfold — use the reported times to
rank functions, and perfbench / ``repro ... --profile`` wall numbers for
any before/after claim.

Usage::

    PYTHONPATH=src python tools/profile_hotpath.py
    PYTHONPATH=src python tools/profile_hotpath.py --app SSSP --graph DCT \\
        --iters 3 --sort cumulative --limit 40
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys

from repro.configs import parse_config
from repro.graph import DEFAULT_SIM_SCALE, load_dataset
from repro.harness.runner import run_workload
from repro.sim.config import scaled_system

STATIC_CONFIGS = [d + c + m for d in "TS" for c in "GD" for m in "01R"]
DYNAMIC_CONFIGS = ["D" + c + m for c in "GD" for m in "01R"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--app", default="PR",
                        help="application (default PR)")
    parser.add_argument("--graph", default="EML",
                        help="dataset key (default EML)")
    parser.add_argument("--iters", type=int, default=2,
                        help="iteration cap (default 2)")
    parser.add_argument("--configs", default=None,
                        help="comma-separated config codes (default: the "
                             "full static or dynamic matrix for the app)")
    parser.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumulative", "ncalls"],
                        help="pstats sort key (default tottime)")
    parser.add_argument("--limit", type=int, default=25,
                        help="rows to print (default 25)")
    args = parser.parse_args(argv)

    app = args.app.upper()
    key = args.graph.upper()
    if args.configs:
        codes = args.configs.split(",")
    else:
        codes = DYNAMIC_CONFIGS if app == "CC" else STATIC_CONFIGS
    scale = DEFAULT_SIM_SCALE.get(key, 1)
    graph = load_dataset(key, scale=scale)
    system = scaled_system(scale)
    configs = [parse_config(code) for code in codes]

    print(f"profiling {app} on {key} (scale {scale}), "
          f"{len(configs)} configs, iters={args.iters}",
          file=sys.stderr)

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run_workload(app, graph, configs=configs, system=system,
                     max_iters=args.iters)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
