"""Regenerate the golden fixtures in tests/data from the current code.

``golden_timing.json`` pins modeled timing; ``trace_digests.json`` pins
the realized traces themselves; ``phase_digests.json`` pins the phase
streams the applications yield before any realization;
``memory_digests.json`` pins the memory system on its own;
``profile_digests.json`` pins the taxonomy profile of every dataset;
``prune_subsets.json`` pins the configurations a pruned sweep plans.

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

The phase-digest test (TestPhaseDigests in tests/test_frontier.py) pins
the sha256 of every phase each registered app yields on each of the six
datasets at its timing-simulation scale and the app's default iteration
cap: the phase's class name and every field, with an array hashed as
its dtype, shape and bytes (``None`` stays ``None``, so a full frontier
written as an all-True mask shows).  It catches a kernel-layer change
whose traces the two-iteration trace digests do not reach.

The memory-digest test (TestMemoryDigests in tests/test_coherence.py)
pins the sha256 of seeded random ``load``/``store``/``acquire``/
``atomics`` histories run straight against each coherence protocol, on
a tiny power-of-two hierarchy and on one whose L1 and L2 set counts are
not powers of two: every return value, then the final stats, sequencer,
ownership directory, bank/channel/L1-atomic free times, MSHR and
store-buffer rings, and every L1/L2 set's entries in LRU order.  It
catches a coherence change below the engine, including state the
end-to-end numbers do not show yet.

The profile pin (TestProfilePin in tests/test_taxonomy.py) holds each
of the six datasets' full ``GraphProfile`` at its simulation scale:
degree statistics, volume, ANL/ANR/reuse and imbalance at full float
precision, plus the three H/M/L classes.  It catches a change to the
metrics or to the machine a graph is profiled against.

The pruned-plan pin (TestPrunedPlanPin in tests/test_pruning.py) holds
the configuration subset ``plan_sweep`` keeps for every dataset x
registered app at its simulation scale, under each ``(k, explore)``
setting ``benchmarks/bench_pruning.py`` measures.  It is profiling and
ranking only, no simulation, and catches a change to the ranking, the
exploration draw or the profile a unit is ranked against.

Run this ONLY when a timing, trace, memory-system, profile or pruning
change is intentional, and say so in the commit message:

    PYTHONPATH=src python tools/make_golden_fixture.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import numpy as np

from repro.graph.datasets import DEFAULT_SIM_SCALE, load_dataset, sim_dataset
from repro.harness.runner import run_workload
from repro.harness.sweep import plan_sweep
from repro.configs import parse_config
from repro.kernels import KERNELS, TraceBuilder, make_kernel
from repro.model.pruning import PruningPolicy
from repro.sim.coherence import make_memory_system
from repro.sim.config import SystemConfig, scaled_system
from repro.taxonomy import profile_graph

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
FIXTURE = DATA / "golden_timing.json"
DIGESTS = DATA / "trace_digests.json"
PHASE_DIGESTS = DATA / "phase_digests.json"
MEMORY_DIGESTS = DATA / "memory_digests.json"
PROFILE_DIGESTS = DATA / "profile_digests.json"
PRUNE_SUBSETS = DATA / "prune_subsets.json"

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


def phase_digest(app: str, key: str) -> str:
    """sha256 over every phase ``app`` yields on ``key`` at sim scale."""
    kernel = make_kernel(app, sim_dataset(key))
    hasher = hashlib.sha256()
    for iteration in kernel.iterations():
        for phase in iteration:
            hasher.update(type(phase).__name__.encode())
            for f in dataclasses.fields(phase):
                value = getattr(phase, f.name)
                if isinstance(value, np.ndarray):
                    hasher.update(repr((f.name, value.dtype.str,
                                        value.shape)).encode())
                    hasher.update(np.ascontiguousarray(value).tobytes())
                else:
                    hasher.update(repr((f.name, value)).encode())
    return hasher.hexdigest()


def build_phase_digests() -> dict:
    return {
        "version": 1,
        "digests": {
            f"{app}/{key}@{DEFAULT_SIM_SCALE[key]}": phase_digest(app, key)
            for app in KERNELS
            for key in DEFAULT_SIM_SCALE
        },
    }


#: Systems the memory histories run on.  ``tiny`` is the hierarchy of
#: tests/test_coherence.py (2-set L1s, 8-set L2); ``odd`` has 3-set L1s,
#: a 7-set L2, 5 banks, 3 channels and 4-entry MSHR/store-buffer rings,
#: so no modulus aliases another and both rings wrap.
MEMORY_SYSTEMS = {
    "tiny": SystemConfig(num_sms=4, l1_bytes=16 * 64, l2_bytes=128 * 64),
    "odd": SystemConfig(num_sms=3, l1_bytes=24 * 64, l2_bytes=112 * 64,
                        l2_banks=5, mem_channels=3, l1_mshrs=4,
                        store_buffer_entries=4),
}
MEMORY_SEEDS = 40
MEMORY_CALLS = 80
MEMORY_LINES = 200
MEMORY_HOT = 24


def memory_history(protocol: str, config: SystemConfig, seed: int,
                   sink) -> None:
    """Run one seeded call history, feeding ``sink`` every result.

    The calls depend only on ``seed`` (never on what the protocol
    returns), so both protocols see the same history.  ``seed % 5`` is
    the DRFrlx window of every ``atomics`` call: 0 (DRF0/DRF1) or 1-4.
    """
    rng = random.Random(seed)
    mem = make_memory_system(protocol, config)
    window = seed % 5
    outstanding = [[] for _ in range(config.num_sms)]
    now = 0.0
    for _ in range(MEMORY_CALLS):
        now += rng.randint(0, 200)
        sm = rng.randrange(config.num_sms)
        kind = rng.random()
        # Half the calls stay on a few hot lines so that L1 hits, local
        # atomics and remote owners are common, not just misses.
        pool = range(MEMORY_HOT if rng.random() < 0.5 else MEMORY_LINES)
        lines = tuple(sorted(rng.sample(pool, rng.randint(1, 4))))
        if kind < 0.4:
            sink(("load", mem.load(sm, lines, now)))
        elif kind < 0.6:
            sink(("store", mem.store(sm, lines, now)))
        elif kind < 0.9:
            pairs = tuple((line, rng.randint(1, 4)) for line in lines)
            floor = now + rng.randint(0, 300)
            got = mem.atomics(sm, pairs, floor, now, outstanding[sm], window)
            sink(("atomics", got, outstanding[sm]))
        else:
            sink(("acquire", mem.acquire(sm)))
    caches = [*mem.l1s, mem.l2]
    sink((
        mem.stats.to_dict(),
        sorted(mem.sequencer.items()),
        sorted(mem.owner.items()),
        sorted(getattr(mem, "_last_atomic_sm", {}).items()),
        mem._l2_bank_free,
        mem._mem_channel_free,
        mem._l1_atomic_free,
        [(r.free_at, r.idx) for r in (*mem._mshrs, *mem._store_buffers)],
        [(c._valid_epoch, c._all_epoch, [list(s.items()) for s in c._sets])
         for c in caches],
    ))


def memory_digest(protocol: str, system: str) -> str:
    """sha256 over every seeded history of one protocol on one system."""
    hasher = hashlib.sha256()
    for seed in range(MEMORY_SEEDS):
        memory_history(protocol, MEMORY_SYSTEMS[system], seed,
                       lambda item: hasher.update(repr(item).encode()))
    return hasher.hexdigest()


def build_memory_digests() -> dict:
    return {
        "version": 1,
        "seeds": MEMORY_SEEDS,
        "calls": MEMORY_CALLS,
        "digests": {
            f"{protocol}/{system}": memory_digest(protocol, system)
            for protocol in ("gpu", "denovo")
            for system in MEMORY_SYSTEMS
        },
    }


def profile_as_dict(profile) -> dict:
    """A ``GraphProfile`` as plain JSON values, floats at full precision."""
    return json.loads(json.dumps(dataclasses.asdict(profile)))


def profile_record(key: str) -> dict:
    """``key``'s full profile at sim scale, on the system it simulates on."""
    scale = DEFAULT_SIM_SCALE[key]
    return profile_as_dict(profile_graph(load_dataset(key, scale=scale),
                                         scaled_system(scale)))


def build_profile_digests() -> dict:
    return {
        "version": 1,
        "profiles": {
            f"{key}@{scale}": profile_record(key)
            for key, scale in DEFAULT_SIM_SCALE.items()
        },
    }


#: The ``(k, explore)`` settings ``benchmarks/bench_pruning.py`` measures.
PRUNE_SETTINGS = ((1, 0), (1, 1), (2, 1))


def prune_subsets(k: int, explore: int) -> dict:
    """Every dataset x app's planned subset under ``PruningPolicy(k,
    explore)``, each graph at its simulation scale."""
    _, subsets = plan_sweep(DEFAULT_SIM_SCALE, KERNELS,
                            prune=PruningPolicy(k=k, explore=explore))
    return {f"{graph}/{app}": list(codes)
            for (graph, app), codes in subsets.items()}


def build_prune_subsets() -> dict:
    return {
        "version": 1,
        "subsets": {
            f"k={k},explore={explore}": prune_subsets(k, explore)
            for k, explore in PRUNE_SETTINGS
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
    phases = build_phase_digests()
    _write(PHASE_DIGESTS, phases)
    print(f"wrote {PHASE_DIGESTS} ({len(phases['digests'])} pinned "
          f"app/dataset phase streams)")
    memory = build_memory_digests()
    _write(MEMORY_DIGESTS, memory)
    print(f"wrote {MEMORY_DIGESTS} "
          f"({len(memory['digests'])} pinned protocol/system pairs)")
    profiles = build_profile_digests()
    _write(PROFILE_DIGESTS, profiles)
    print(f"wrote {PROFILE_DIGESTS} ({len(profiles['profiles'])} pinned "
          f"dataset profiles)")
    prune = build_prune_subsets()
    _write(PRUNE_SUBSETS, prune)
    print(f"wrote {PRUNE_SUBSETS} ({len(prune['subsets'])} pinned "
          f"pruning settings)")


if __name__ == "__main__":
    main()
