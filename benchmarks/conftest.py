"""Shared infrastructure for the paper-reproduction benchmarks.

The Figure 5 sweep is the expensive artifact (36 workloads x 4-5
configurations of trace-driven simulation); Figures 6 and the partial
design-space study are different views of the same data, so each app
matrix's sweep is computed once per pytest session and shared.

Every benchmark writes its regenerated table/figure to ``results/`` and
also prints it (run pytest with ``-s`` to see the output inline).
"""

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

_CACHE: dict = {}


def quick_mode() -> bool:
    """REPRO_BENCH_QUICK=1 trims iteration counts for smoke runs."""
    return os.environ.get("REPRO_BENCH_QUICK", "") == "1"


def get_sweep(apps=None):
    """The sweep of every graph x ``apps``, computed once per session
    per app tuple.

    ``apps`` defaults to ``PAPER_APPS``: these benchmarks reproduce the
    paper's figures and regression baselines, which cover exactly the
    original six applications (``bench_generalization.py`` asks for the
    BFS/KC/TC/LP additions).

    The sweep executes through ``repro.runtime``: set
    ``REPRO_BENCH_JOBS=N`` to fan workloads across N worker processes
    and ``REPRO_BENCH_CACHE_DIR=DIR`` to reuse per-workload results
    across benchmark sessions (interrupted runs resume for free).
    """
    from repro.harness import PAPER_APPS, run_sweep

    apps = tuple(PAPER_APPS if apps is None else apps)
    if apps not in _CACHE:
        _CACHE[apps] = run_sweep(
            apps=apps,
            max_iters=2 if quick_mode() else None,
            jobs=int(os.environ.get("REPRO_BENCH_JOBS", "1")),
            cache=os.environ.get("REPRO_BENCH_CACHE_DIR") or None,
            progress=lambda label: print(f"  [sweep] {label}", flush=True),
        )
    return _CACHE[apps]


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def sweep():
    return get_sweep()


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a regenerated artifact and persist it under results/."""
    print()
    print(text)
    (results_dir / name).write_text(text + "\n")
