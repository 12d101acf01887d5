"""Wall-clock phase timing for the simulator's own hot paths.

This measures how long *we* take (trace realization vs. simulation), not
anything the simulator models.  Results therefore never enter
:class:`~repro.harness.runner.WorkloadResult` — serialized outcomes must
stay bit-identical whether or not profiling is on — and live instead in a
process-wide :class:`PerfCollector` that `repro ... --profile` and
``benchmarks/bench_perf.py`` read.

Collection is disabled by default; when enabled it costs two
``perf_counter`` calls per phase per iteration.  The collector is
per-process: a parallel run's lease worker nodes time their own units,
so the parent records only its share, and profiling callers run
serially.

The collector is not a reporting channel of its own: :mod:`repro.obs`
registers :func:`metrics_source` as the ``perf`` source of its metrics
registry, so an enabled collector's snapshot appears inside
``MetricsRegistry.snapshot()["sources"]["perf"]`` alongside the event
counters instead of living in a parallel singleton.
"""

from __future__ import annotations

import time
from pathlib import Path

__all__ = ["PerfCollector", "collector", "commit_stamp",
           "format_breakdown", "metrics_source"]


class PerfCollector:
    """Accumulates wall seconds per hot phase plus op throughput."""

    __slots__ = ("enabled", "tracegen_s", "simulate_s", "ops", "workloads")

    def __init__(self) -> None:
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        """Zero all accumulators (leaves ``enabled`` untouched)."""
        self.tracegen_s = 0.0
        self.simulate_s = 0.0
        self.ops = 0
        self.workloads = 0

    # Used by the runner as ``t0 = perf.clock()`` so tests can stub time.
    clock = staticmethod(time.perf_counter)

    def snapshot(self) -> dict:
        """JSON-safe view of the accumulated phase timings."""
        total = self.tracegen_s + self.simulate_s
        return {
            "tracegen_s": self.tracegen_s,
            "simulate_s": self.simulate_s,
            "total_s": total,
            "ops": self.ops,
            "ops_per_sec": (self.ops / self.simulate_s
                            if self.simulate_s > 0 else 0.0),
            "workloads": self.workloads,
        }


#: The process-wide collector instrumented code reports into.
collector = PerfCollector()


def metrics_source() -> dict | None:
    """The ``perf`` source for :mod:`repro.obs` (None while disabled)."""
    return collector.snapshot() if collector.enabled else None


def format_breakdown(snap: dict) -> list[str]:
    """Human-readable lines for a :meth:`PerfCollector.snapshot`."""
    total = snap["total_s"]

    def pct(x: float) -> str:
        return f"{100.0 * x / total:5.1f}%" if total > 0 else "    -"

    return [
        f"profile: {snap['workloads']} workload(s), "
        f"{snap['ops']} ops simulated",
        f"  trace-gen : {snap['tracegen_s']:8.3f} s "
        f"({pct(snap['tracegen_s'])})",
        f"  simulate  : {snap['simulate_s']:8.3f} s "
        f"({pct(snap['simulate_s'])})  "
        f"[{snap['ops_per_sec']:,.0f} ops/s]",
        f"  total     : {total:8.3f} s",
    ]


def commit_stamp(root: Path) -> str:
    """The commit a measurement taken in checkout ``root`` came from.

    HEAD's short hash, with ``-dirty`` when a tracked file differs from
    it (untracked files do not count), or ``unknown`` outside a git
    checkout.  Every committed benchmark number carries this stamp.
    """
    import subprocess  # only benchmark scripts call this; keep imports lean

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            check=True).stdout.strip()

    try:
        sha = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{sha}-dirty" if dirty else sha
