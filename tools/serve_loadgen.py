"""Traffic generator + acceptance harness for the ``repro.serve`` daemon.

Drives a real daemon (self-hosted as a subprocess on a Unix socket, or
an existing one via ``--server``) through the phases DESIGN §14 promises
and writes ``BENCH_serve.json`` with the numbers:

1. **cold-local** — each grid workload simulated in-process, uncached:
   the baseline a served cache hit is compared against.
2. **cold-served** — the grid submitted cold through the daemon (fills
   the server-side cache).
3. **warm** — ``--rounds`` passes over the warm grid on one keep-alive
   connection: p50/p99 latency and sustained qps.
4. **mixed** — the warm loop again for ``MIXED_SECONDS`` while a
   background client pushes fresh (never-cached, seed-shifted) grids
   through the simulation pool back to back: cache hits must keep
   flowing under cold load (``--mixed-p50-bound`` gates their p50).
5. **restart** — the daemon is stopped and a fresh one pointed at the
   same cache directory: the whole grid must come back ``source:
   cache`` with **zero** re-simulated units.

Checks (exit 1 on any failure): zero dropped obs events, warm p99 under
``--p99-bound``, and warm-hit p99 at least ``--min-speedup`` times
faster than a cold single-workload simulation (0 disables).

Usage: PYTHONPATH=src python tools/serve_loadgen.py [--rounds N]
           [--out BENCH_serve.json] [--p99-bound S] [--min-speedup X]
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

from repro.perf import commit_stamp
from repro.runtime import ExecutionPlan, run_plan
from repro.serve import ServeClient
from repro.sim.config import SystemConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
GRAPHS = ("DCT", "RAJ")
APPS = ("PR", "CC")
SCALES = {"DCT": 64, "RAJ": 32}
MAX_ITERS = 8  # big enough that a cold sim dwarfs a cache read
MIXED_SECONDS = 5.0  # phase 4 window: several cold batches long
SYSTEM = SystemConfig(num_sms=4, l1_bytes=1024, l2_bytes=16 * 1024,
                      tb_size=64, max_tbs_per_sm=2,
                      kernel_launch_cycles=100)

_failures = 0


def check(condition, message):
    global _failures
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        _failures = 1


def percentile(samples, q):
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def summarize(samples):
    return {
        "count": len(samples),
        "p50_ms": round(percentile(samples, 0.50) * 1e3, 3),
        "p99_ms": round(percentile(samples, 0.99) * 1e3, 3),
        "max_ms": round(max(samples) * 1e3, 3) if samples else None,
    }


class Daemon:
    """A ``repro serve`` subprocess on a Unix socket."""

    def __init__(self, uds, cache_dir, events=None):
        self.uds = Path(uds)
        self.endpoint = f"unix://{self.uds}"
        argv = [sys.executable, "-m", "repro", "serve",
                "--uds", str(self.uds), "--cache-dir", str(cache_dir)]
        if events is not None:
            argv += ["--events", str(events)]
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        deadline = time.monotonic() + 30
        while not self.uds.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                out = self.proc.communicate()[0]
                raise RuntimeError(f"daemon failed to start:\n{out}")
            time.sleep(0.02)

    def stop(self):
        if self.proc.poll() is None:
            try:
                ServeClient(self.endpoint, timeout=5.0).shutdown()
            except Exception:
                self.proc.terminate()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def timed_submit(client, spec):
    start = time.monotonic()
    envelope = client.submit(spec)
    return time.monotonic() - start, envelope


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=250,
                        help="warm passes over the grid (default 250: "
                             "1000 samples, so the p99 rests on ten)")
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument("--p99-bound", type=float, default=0.25,
                        help="warm p99 latency bound in seconds "
                             "(default 0.25)")
    parser.add_argument("--min-speedup", type=float, default=100.0,
                        help="required cold-sim / warm-p99 ratio "
                             "(0 disables; default 100)")
    parser.add_argument("--mixed-p50-bound", type=float, default=0.0,
                        help="warm p50 bound in seconds under cold load "
                             "(phase 4; 0 disables)")
    parser.add_argument("--server", default=None, metavar="URL",
                        help="target an existing daemon instead of "
                             "self-hosting (skips the restart phase)")
    parser.add_argument("--events", default=None, metavar="PATH",
                        help="daemon event log (self-hosted only)")
    args = parser.parse_args(argv)

    plan = ExecutionPlan.for_sweep(GRAPHS, APPS, max_iters=MAX_ITERS,
                                   scales=SCALES, base_system=SYSTEM)
    specs = list(plan)

    print(f"phase 1: cold-local baseline ({len(specs)} units, uncached)")
    cold_local = []
    for spec in specs:
        start = time.monotonic()
        run_plan([spec])  # no cache: a true cold simulation
        cold_local.append(time.monotonic() - start)
    cold_unit_s = sum(cold_local) / len(cold_local)
    print(f"  mean cold simulation: {cold_unit_s * 1e3:.1f} ms/unit")

    workdir = Path(tempfile.mkdtemp(prefix="repro-serve-loadgen-"))
    try:
        daemon = None
        if args.server is None:
            events = args.events or workdir / "serve-events.jsonl"
            daemon = Daemon(workdir / "serve.sock", workdir / "cache",
                            events=events)
            endpoint = daemon.endpoint
        else:
            endpoint = args.server
        bench = {
            "schema": 1,
            "commit": commit_stamp(REPO_ROOT),
            "grid": {"graphs": GRAPHS, "apps": APPS, "max_iters": MAX_ITERS,
                     "units": len(specs)},
            "cold_local_s_per_unit": round(cold_unit_s, 4),
        }
        try:
            client = ServeClient(endpoint, client_id="loadgen")
            print(f"phase 2: cold submits through {endpoint}")
            cold_served = []
            for spec in specs:
                elapsed, envelope = timed_submit(client, spec)
                cold_served.append(elapsed)
                assert envelope["status"] == "ok", envelope
            bench["cold_served"] = summarize(cold_served)

            print(f"phase 3: warm loop ({args.rounds} x {len(specs)} requests)")
            warm = []
            warm_start = time.monotonic()
            for _ in range(args.rounds):
                for spec in specs:
                    elapsed, envelope = timed_submit(client, spec)
                    warm.append(elapsed)
                    assert envelope["source"] == "cache", envelope
            warm_wall = time.monotonic() - warm_start
            bench["warm"] = summarize(warm)
            bench["warm"]["qps"] = round(len(warm) / warm_wall, 1)
            print(f"  p50 {bench['warm']['p50_ms']} ms, "
                  f"p99 {bench['warm']['p99_ms']} ms, "
                  f"{bench['warm']['qps']} req/s sustained")

            print(f"phase 4: warm traffic under continuous cold batches "
                  f"({MIXED_SECONDS:g} s)")
            stop = threading.Event()
            cold_batches = []

            def cold_loop():
                # Fresh seed-shifted batches back to back for the whole
                # window, so every warm request below meets cold load.
                with ServeClient(endpoint, client_id="cold-bg") as cold:
                    while not stop.is_set():
                        shift = len(cold_batches) + 1
                        cold.submit_many([replace(spec, seed=spec.seed + shift)
                                          for spec in specs])
                        cold_batches.append(shift)

            background = threading.Thread(target=cold_loop)
            background.start()
            mixed = []
            mixed_end = time.monotonic() + MIXED_SECONDS
            while time.monotonic() < mixed_end:
                for spec in specs:
                    elapsed, envelope = timed_submit(client, spec)
                    mixed.append(elapsed)
                    assert envelope["source"] == "cache", envelope
            stop.set()
            background.join()
            bench["warm_under_cold"] = summarize(mixed)
            bench["warm_under_cold"]["cold_batches"] = len(cold_batches)

            stats = client.stats()
            bench["server_stats"] = {key: stats[key] for key in
                                     ("requests", "hits", "misses", "coalesced",
                                      "admitted", "rejected", "simulated",
                                      "failed", "batches", "obs_dropped")}
            check(stats["obs_dropped"] == 0,
                  f"zero dropped obs events ({stats['obs_dropped']})")
            client.close()
        finally:
            if daemon is not None:
                daemon.stop()

        if daemon is not None:
            print("phase 5: restart — same cache, fresh daemon, zero resim")
            daemon = Daemon(workdir / "serve.sock", workdir / "cache")
            try:
                client = ServeClient(daemon.endpoint, client_id="loadgen")
                outcomes = client.submit_many(specs)
                stats = client.stats()
                client.close()
            finally:
                daemon.stop()
            all_cached = all(env["source"] == "cache" for env in outcomes)
            check(all_cached and stats["simulated"] == 0
                  and stats["misses"] == 0,
                  f"restarted daemon served {len(outcomes)} digest(s) from "
                  f"cache with zero re-simulated units")
            bench["restart"] = {"zero_resim": all_cached
                                and stats["simulated"] == 0,
                                "hits": stats["hits"]}
    finally:
        # The cache, socket and default event log are this run's alone.
        shutil.rmtree(workdir, ignore_errors=True)

    warm_p99_s = percentile(warm, 0.99)
    speedup = cold_unit_s / warm_p99_s if warm_p99_s > 0 else float("inf")
    bench["warm_hit_speedup_vs_cold_sim"] = round(speedup, 1)
    check(warm_p99_s <= args.p99_bound,
          f"warm p99 {warm_p99_s * 1e3:.2f} ms within bound "
          f"{args.p99_bound * 1e3:.0f} ms")
    if args.mixed_p50_bound > 0:
        mixed_p50_s = percentile(mixed, 0.50)
        check(mixed_p50_s <= args.mixed_p50_bound,
              f"warm p50 under cold load {mixed_p50_s * 1e3:.2f} ms within "
              f"bound {args.mixed_p50_bound * 1e3:g} ms")
    if args.min_speedup > 0:
        check(speedup >= args.min_speedup,
              f"warm-hit p99 is {speedup:.0f}x faster than a cold "
              f"simulation (need >= {args.min_speedup:g}x)")

    out = Path(args.out)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    return _failures


if __name__ == "__main__":
    raise SystemExit(main())
