"""The three workloads: set-up, measured loop, and output checks.

Every step goes through the public API — ``run_sweep``/``plan_sweep``,
``run_plan``/``execute_spec``, ``ResultCache``, the ``repro serve``
daemon and ``ServeClient`` — and every input is generated from the
benchmark's ``--seed``.

Sizing: one Figure-5 sweep at the 1-iteration cap over one graph of each
volume class (EML = H, OLS = M, RAJ = L) takes ~28 s on a 2-core host;
all six graphs would take ~65 s, so neither fits the contract's run
length.  Both sweep workloads therefore use that three-graph subset.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from catalogue import ROOT

import tracing

clock = time.perf_counter

SRC = ROOT / "src"
WORK = Path(".perfbench-work")  # relative: keeps Unix socket paths short
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
SWEEP_SETUP_REPS = 5  # a set-up is ~0.8 s: cheap to repeat
SERVE_SETUP_REPS = 3

SWEEP_GRAPHS = ("EML", "OLS", "RAJ")
SWEEP_ITERS = 1
PRUNE_K, PRUNE_EXPLORE, POOL_JOBS = 1, 1, 2

# serve-mixed: the warm spec set of tools/serve_loadgen.py's small system.
SERVE_GRAPHS = ("DCT", "RAJ")
SERVE_APPS = ("PR", "CC")
SERVE_SCALES = {"DCT": 64, "RAJ": 32}
SERVE_ITERS = 8
#: Cold batches the reference covers at the reference seed (a 20 s
#: window completes about ten).
SERVE_REFERENCE_BATCHES = 24


def env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def result_digest(result: dict) -> str:
    """sha256 of a ``WorkloadResult.to_dict()`` payload."""
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_reference(workload: str) -> dict | None:
    try:
        return json.loads(REFERENCE.read_text())[workload]
    except (OSError, KeyError, ValueError):
        return None


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


class Outcome:
    """What one workload run produced, before rendering."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # output-check failures
        self.notes: list[str] = []  # report lines (divergences, counts)
        self.samples: dict[str, list[float]] = {}
        self.metrics: dict[str, float] = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


# -- sweeps -----------------------------------------------------------------


def sweep_args(workload: str, seed: int) -> dict:
    from repro.harness.sweep import APPS, PAPER_APPS

    if workload == "fig5-cold":
        return dict(graphs=SWEEP_GRAPHS, apps=PAPER_APPS,
                    max_iters=SWEEP_ITERS, seed=seed, jobs=1)
    return dict(graphs=SWEEP_GRAPHS, apps=APPS, max_iters=SWEEP_ITERS,
                seed=seed, jobs=POOL_JOBS, backend="process",
                prune_k=PRUNE_K, explore=PRUNE_EXPLORE)


def setup_probe(seed: int) -> None:
    """One set-up in this (fresh) interpreter: imports and graph builds."""
    import repro.harness.sweep  # noqa: F401  (the import cost is measured)
    from repro.runtime import GraphRef

    for key in SWEEP_GRAPHS:
        GraphRef.dataset(key, seed=seed).load()


def timed_setup_probes(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SWEEP_SETUP_REPS):
        start = clock()
        subprocess.run(
            [sys.executable, "perfbench/run.py", "--setup-probe", workload,
             "--seed", str(seed)],
            check=True, env=env_with_src(), stdout=subprocess.DEVNULL)
        times.append(clock() - start)
    return times


def plan_digests(workload: str, seed: int) -> dict:
    """(graph, app) -> spec for the plan run_sweep builds internally."""
    from repro.harness.sweep import plan_sweep
    from repro.model.pruning import PruningPolicy

    args = sweep_args(workload, seed)
    prune = None
    if args.get("prune_k") is not None:
        prune = PruningPolicy(k=args["prune_k"], explore=args["explore"],
                              seed=seed)
    plan, _ = plan_sweep(args["graphs"], args["apps"],
                         max_iters=args["max_iters"], seed=seed, prune=prune)
    return {(spec.graph.label, spec.app): spec for spec in plan}


def check_sweep(out: Outcome, workload: str, seed: int, result,
                specs: dict, rng: random.Random) -> None:
    """Every unit ok; digests vs the reference; one sampled re-execution."""
    from repro.runtime import execute_spec

    out.attempted += len(specs)
    out.failed += len(result.failures)
    for failure in result.failures:
        out.notes.append(f"unit failed: {failure.label} ({failure.kind})")
    digests = {}
    for row in result.rows:
        spec = specs[(row.graph, row.app)]
        digests[spec.digest()] = result_digest(row.workload.to_dict())
    reference = load_reference(workload)
    if seed == REFERENCE_SEED:
        out.check(reference is not None, f"no reference for {workload}")
        if reference is not None:
            wrong = [d for d in reference if digests.get(d) != reference[d]]
            extra = [d for d in digests if d not in reference]
            out.check(not wrong and not extra,
                      f"{workload}: {len(wrong)} result(s) differ from the "
                      f"reference, {len(extra)} unit(s) not in it")
    if result.rows:
        row = rng.choice(result.rows)
        spec = specs[(row.graph, row.app)]
        local = result_digest(execute_spec(spec).to_dict())
        out.check(local == digests[spec.digest()],
                  f"{spec.label}: sweep result differs from an in-process "
                  f"execute_spec of the same spec")


def one_sweep(workload: str, seed: int, cache_root: Path | None,
              tracer: tracing.Tracer | None = None):
    """One run_sweep call; returns (result, wall, progress stamps)."""
    from repro.harness.sweep import run_sweep
    from repro.runtime import ResultCache

    args = sweep_args(workload, seed)
    if cache_root is not None:
        cache_dir = cache_root / f"cache-{time.monotonic_ns()}"
        args["cache"] = ResultCache(cache_dir)
    stamps: list[float] = []
    start = clock()
    with tracer.span("bench.sweep") if tracer is not None else nullcontext():
        result = run_sweep(progress=lambda _label: stamps.append(clock()),
                           **args)
    wall = clock() - start
    if cache_root is not None:
        shutil.rmtree(args["cache"].directory, ignore_errors=True)
    return result, wall, [start] + stamps


def run_sweep_workload(workload: str, seed: int, seconds: float,
                       trace: bool, workdir: Path) -> Outcome:
    from repro.runtime import GraphRef, load_graph

    out = Outcome()
    rng = random.Random(seed)
    cache_root = workdir if workload == "prune-pool" else None
    if not trace:
        out.samples["setup_s"] = timed_setup_probes(workload, seed)
        for key in SWEEP_GRAPHS:  # pre-built; forked workers inherit them
            load_graph(GraphRef.dataset(key, seed=seed))
        specs = plan_digests(workload, seed)
        walls, units = [], 0
        begin = clock()
        while not walls or clock() - begin < seconds:
            result, wall, _stamps = one_sweep(workload, seed, cache_root)
            check_sweep(out, workload, seed, result, specs, rng)
            walls.append(wall)
            units += len(result.rows)
        out.notes.append(f"exact predictions: {result.exact_predictions} of "
                         f"{len(result.rows)} rows (oracle-known rows only)")
        out.samples["sweep_s"] = walls
        # A sweep caller waits for the whole call: one request per sweep.
        out.samples["request_ms"] = [wall * 1e3 for wall in walls]
        out.metrics["cold_units_per_s"] = units / sum(walls)
        return out

    # Traced: the same first sweep of the process, every layer wrapped.
    import repro.obs as obs
    from repro.perf import collector

    specs = plan_digests(workload, seed)  # the check's planning: untraced
    for key in SWEEP_GRAPHS:
        load_graph(GraphRef.dataset(key, seed=seed))
    tracer = tracing.Tracer(flush_dir=workdir / "spans")
    tracer.flush_dir.mkdir(parents=True, exist_ok=True)
    tracing.install(tracer)
    for key in SWEEP_GRAPHS:  # a traced rebuild: what set-up pays per graph
        GraphRef.dataset(key, seed=seed).load()
    observer = obs.enable()
    collector.reset()
    collector.enabled = True
    result, traced_wall, stamps = one_sweep(workload, seed, cache_root,
                                            tracer)
    collector.enabled = False
    observer.enabled = False
    tracer.merge_flushed()

    layers = tracing.layer_metrics(tracer)
    jobs = sweep_args(workload, seed)["jobs"]
    run_plan_s = layers["executor.run_plan_s"]
    plan_starts = [start for name, start, _e, _p in tracer.spans
                   if name == "executor.run_plan"]
    counters = observer.metrics
    layers.update({
        "executor.idle_frac": (1 - layers["executor.worker_busy_s"]
                               / (jobs * run_plan_s) if run_plan_s else 0.0),
        "executor.first_result_s": (stamps[1] - plan_starts[0]
                                    if plan_starts and len(stamps) > 1
                                    else 0.0),
        "executor.retries": counters.counter("units.retried").value,
        "executor.failed": counters.counter("units.failed").value,
        "model.exact_predictions": result.exact_predictions,
        "trace.overhead_frac": tracing.overhead_frac(tracer,
                                                     jobs * traced_wall),
    })
    check_sweep(out, workload, seed, result, specs, rng)
    out.notes.append(f"exact predictions: {result.exact_predictions} of "
                     f"{len(result.rows)} rows (oracle-known rows only)")
    wall, own = tracer.self_time("bench.sweep")
    layers["trace.unattributed_frac"] = own / wall if wall else 0.0
    perf = collector.snapshot()
    if workload == "fig5-cold":
        layers["trace.perf_tracegen_ratio"] = (
            layers["tracegen.realize_s"] / perf["tracegen_s"])
        layers["trace.perf_feed_ratio"] = (
            layers["engine.feed_s"] / perf["simulate_s"])
        for name in ("trace.perf_tracegen_ratio", "trace.perf_feed_ratio"):
            if abs(layers[name] - 1) > 0.05:
                out.notes.append(
                    f"DIVERGENCE: {name} = {layers[name]:.4f}: the spans "
                    f"and repro.perf disagree by more than 5%")
    out.metrics.update(layers)
    return out


# -- serve-mixed --------------------------------------------------------------


def serve_specs(seed: int) -> list:
    from repro.runtime import ExecutionPlan
    from repro.sim.config import SystemConfig

    system = SystemConfig(num_sms=4, l1_bytes=1024, l2_bytes=16 * 1024,
                          tb_size=64, max_tbs_per_sm=2,
                          kernel_launch_cycles=100)
    return list(ExecutionPlan.for_sweep(
        SERVE_GRAPHS, SERVE_APPS, max_iters=SERVE_ITERS, seed=seed,
        scales=SERVE_SCALES, base_system=system))


def cold_batch(warm_specs: list, index: int) -> list:
    """Batch ``index``: the warm set, seed-shifted so no digest repeats."""
    return [replace(spec, seed=spec.seed + 1 + index) for spec in warm_specs]


class Daemon:
    """``repro serve`` with default flags, as a subprocess on a Unix socket."""

    def __init__(self, workdir: Path, trace_out: Path | None) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.uds = workdir / "s.sock"
        self.endpoint = f"unix://{self.uds}"
        flags = ["serve", "--uds", str(self.uds),
                 "--cache-dir", str(workdir / "cache")]
        argv = ([sys.executable, "perfbench/daemon.py", str(trace_out)]
                if trace_out is not None
                else [sys.executable, "-m", "repro"]) + flags
        self.log = open(workdir / "daemon.log", "w")
        self.proc = subprocess.Popen(argv, stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     env=env_with_src())
        deadline = time.monotonic() + 60
        while not self.uds.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("serve daemon failed to start; see "
                                   f"{workdir / 'daemon.log'}")
            time.sleep(0.01)

    def stop(self) -> None:
        from repro.serve import ServeClient, ServeError

        if self.proc.poll() is None:
            try:
                ServeClient(self.endpoint, timeout=10.0).shutdown()
            except (ServeError, OSError):
                self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def start_warm_daemon(workdir: Path, warm: list, results: list,
                      trace_out: Path | None) -> Daemon:
    """Set-up: a fresh cache pre-warmed with ``results``, a daemon on it."""
    from repro.runtime import ResultCache

    cache = ResultCache(workdir / "cache")
    for spec, result in zip(warm, results):
        cache.put(spec, result)
    return Daemon(workdir, trace_out)


def run_serve_workload(seed: int, seconds: float, trace: bool,
                       workdir: Path) -> Outcome:
    from repro.runtime import execute_spec
    from repro.serve import ServeClient

    out = Outcome()
    rng = random.Random(seed)
    warm = serve_specs(seed)
    # Simulated once, untimed: the pre-warm writes these results, so
    # set-up time does not depend on how long the seed's graphs simulate.
    results = [execute_spec(spec) for spec in warm]
    expected = {spec.digest(): result_digest(result.to_dict())
                for spec, result in zip(warm, results)}
    reference = load_reference("serve-mixed")
    if seed == REFERENCE_SEED:
        out.check(reference is not None and expected == reference["warm"],
                  "warm results differ from the reference")
    trace_out = (workdir / "daemon-spans.json").resolve() if trace else None
    setups = []
    for rep in range(SERVE_SETUP_REPS):
        start = clock()
        daemon = start_warm_daemon(workdir / f"d{rep}", warm, results,
                                   trace_out)
        setups.append(clock() - start)
        if rep < SERVE_SETUP_REPS - 1:
            daemon.stop()
    out.samples["setup_s"] = setups

    warm_client = ServeClient(daemon.endpoint, client_id="warm")
    cold_client = ServeClient(daemon.endpoint, client_id="cold")
    tracer = tracing.Tracer() if trace else None
    try:
        before = warm_client.stats()
        run = _serve_window(warm, seconds, warm_client, cold_client,
                            expected, rng, tracer)
        after = warm_client.stats()
    finally:
        warm_client.close()
        cold_client.close()
        daemon.stop()

    # Client-observed outcomes against the daemon's own /stats.
    stats = {key: after[key] - before[key] for key in
             ("requests", "hits", "misses", "coalesced", "rejected",
              "simulated", "failed", "batches")}
    seen = run["sources"]
    pairs = (("hits", seen.get("cache", 0), stats["hits"]),
             ("coalesced", seen.get("coalesced", 0), stats["coalesced"]),
             ("misses", seen.get("simulated", 0),
              stats["misses"] - stats["rejected"]))
    mismatch = 0
    for name, client_count, server_count in pairs:
        if client_count != server_count:
            mismatch += 1
            out.notes.append(f"DIVERGENCE: client saw {client_count} "
                             f"{name}, /stats says {server_count}")
    out.notes.append(f"/stats over the window: {stats}")

    # Output checks on the cold path.
    produced = {}
    for batch, envelopes in run["batches"]:
        for spec, envelope in zip(batch, envelopes):
            out.attempted += 1
            if envelope.get("status") != "ok":
                out.failed += 1
                continue
            produced[spec.digest()] = result_digest(envelope["result"])
    for spec_digest, digest in run["probe_results"]:
        out.check(produced.get(spec_digest) == digest,
                  "a coalesced response differs from its batch's result")
    if seed == REFERENCE_SEED and reference is not None:
        known = reference["cold"]
        out.check(all(known.get(d, digest) == digest
                      for d, digest in produced.items()),
                  "a served cold result differs from the reference")
    if run["batches"]:
        batch, envelopes = rng.choice(run["batches"])
        index = rng.randrange(len(batch))
        if envelopes[index].get("status") == "ok":
            local = result_digest(execute_spec(batch[index]).to_dict())
            out.check(local == result_digest(envelopes[index]["result"]),
                      f"{batch[index].label}: served result differs from "
                      f"an in-process execute_spec of the same spec")
    out.check(not run["wrong"],
              f"{run['wrong']} warm response(s) differ from the pre-warm")
    out.attempted += run["warm_requests"]
    out.failed += run["warm_failed"] + stats["rejected"]

    walls = run["batch_walls"]
    cold_units = len(produced)
    if not trace:
        out.samples["sweep_s"] = walls
        out.samples["request_ms"] = run["hit_ms"]
        out.metrics["cold_units_per_s"] = cold_units / run["wall"]
        return out

    # Daemon-side spans join the client's; self time stays per process.
    tracer.merge(json.loads(trace_out.read_text()))
    layers = tracing.layer_metrics(tracer)
    run_plan_s = layers["executor.run_plan_s"]
    probe_ms = [ms for source, ms in run["probe_ms"] if source == "coalesced"]
    wall, own = tracer.self_time("bench.warm")
    layers.update({
        "executor.idle_frac": (1 - layers["executor.worker_busy_s"]
                               / run_plan_s if run_plan_s else 0.0),
        "serve.hit_ms": statistics.median(run["hit_ms"]),
        "serve.coalesced_ms": (statistics.median(probe_ms)
                               if probe_ms else 0.0),
        "serve.batch_s": statistics.median(walls) if walls else 0.0,
        "serve.hit_ratio": (stats["hits"] / stats["requests"]
                            if stats["requests"] else 0.0),
        "serve.coalesced": stats["coalesced"],
        "serve.rejected": stats["rejected"],
        "serve.batches": stats["batches"],
        "serve.units_per_batch": (stats["simulated"] / stats["batches"]
                                  if stats["batches"] else 0.0),
        "serve.response_bytes": (statistics.mean(run["response_bytes"])
                                 if run["response_bytes"] else 0.0),
        "serve.stats_mismatch": mismatch,
        "obs.dropped": after.get("obs_dropped", 0),
        "trace.overhead_frac": tracing.overhead_frac(tracer, run["wall"]),
        "trace.unattributed_frac": own / wall if wall else 0.0,
    })
    out.metrics.update(layers)
    return out


def _serve_window(warm, seconds, warm_client, cold_client, expected, rng,
                  tracer) -> dict:
    """Two closed-loop connections for ``seconds``.

    The warm connection re-requests the pre-warmed specs back to back;
    once per cold batch it instead re-requests a spec of the batch in
    flight (at 3/4 of the previous batch's wall, so it mostly joins the
    batch and blocks the warm loop only briefly) so the daemon's
    coalescing path runs.  The cold connection submits one never-seen
    batch at a time.
    """
    state = {"target": None, "done": False}
    run = {"batches": [], "batch_walls": [], "hit_ms": [], "probe_ms": [],
           "probe_results": [], "sources": {}, "wrong": 0,
           "warm_requests": 0, "warm_failed": 0, "response_bytes": [],
           "error": None}
    traced = tracer is not None
    start = clock()

    def count_source(envelope):
        source = envelope.get("source")
        run["sources"][source] = run["sources"].get(source, 0) + 1

    def cold_loop():
        try:
            last_wall = 1.0
            index = 0
            while clock() - start < seconds:
                batch = cold_batch(warm, index)
                state["target"] = (index, rng.choice(batch),
                                   clock() + 0.75 * last_wall)
                t0 = clock()
                envelopes = cold_client.submit_many(batch)
                last_wall = clock() - t0
                for envelope in envelopes:
                    count_source(envelope)
                run["batches"].append((batch, envelopes))
                run["batch_walls"].append(last_wall)
                index += 1
        except BaseException as exc:  # surfaced by the caller
            run["error"] = exc
        finally:
            state["done"] = True

    cold = threading.Thread(target=cold_loop, name="cold")
    cold.start()
    probed = -1
    position = 0
    try:
        while not state["done"]:
            target = state["target"]
            if (target is not None and target[0] != probed
                    and clock() >= target[2]):
                probed = target[0]
                spec = target[1]
                t0 = clock()
                envelope = warm_client.submit(spec)
                ms = (clock() - t0) * 1e3
                count_source(envelope)
                run["warm_requests"] += 1
                run["probe_ms"].append((envelope.get("source"), ms))
                if envelope.get("status") == "ok":
                    run["probe_results"].append(
                        (spec.digest(), result_digest(envelope["result"])))
                else:
                    run["warm_failed"] += 1
                continue
            spec = warm[position % len(warm)]
            position += 1
            with tracer.span("bench.warm") if traced else nullcontext():
                with tracer.span("serve.submit") if traced else nullcontext():
                    t0 = clock()
                    envelope = warm_client.submit(spec)
                    ms = (clock() - t0) * 1e3
                run["hit_ms"].append(ms)
                if traced:
                    run["response_bytes"].append(len(json.dumps(envelope)))
                run["warm_requests"] += 1
                count_source(envelope)
                if envelope.get("status") != "ok":
                    run["warm_failed"] += 1
                elif (envelope.get("source") != "cache"
                      or result_digest(envelope["result"])
                      != expected.get(spec.digest())):
                    run["wrong"] += 1
    finally:
        cold.join()
    if run["error"] is not None:
        raise run["error"]
    run["wall"] = clock() - start
    return run


def make_reference() -> dict:
    """Result digests at the reference seed, computed in-process."""
    from repro.runtime import execute_spec, load_graph

    document = {"seed": REFERENCE_SEED}
    for workload in ("fig5-cold", "prune-pool"):
        specs = plan_digests(workload, REFERENCE_SEED)
        document[workload] = {
            spec.digest(): result_digest(execute_spec(spec).to_dict())
            for spec in specs.values()}
        print(f"{workload}: {len(specs)} units", flush=True)
    warm = serve_specs(REFERENCE_SEED)
    load_graph(warm[0].graph)
    document["serve-mixed"] = {
        "warm": {spec.digest(): result_digest(execute_spec(spec).to_dict())
                 for spec in warm},
        "cold": {spec.digest(): result_digest(execute_spec(spec).to_dict())
                 for index in range(SERVE_REFERENCE_BATCHES)
                 for spec in cold_batch(warm, index)},
    }
    print(f"serve-mixed: {len(warm)} warm, "
          f"{len(document['serve-mixed']['cold'])} cold units", flush=True)
    return document
