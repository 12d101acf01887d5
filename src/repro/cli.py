"""Command-line interface: ``python -m repro <command>``.

Commands
--------
datasets              list the six dataset stand-ins and their classes
profile GRAPH         Table II profile of one dataset (or a .mtx file)
predict GRAPH APP     model prediction + decision-tree walkthrough
run GRAPH APP         simulate the Figure 5 configurations for a workload
sweep                 the full sweep: six graphs x the registered
                      applications (slow)
worker QUEUE_DIR      join a sweep's named work queue as one worker node
serve                 run the sweep-as-a-service daemon (HTTP over TCP
                      and/or a Unix socket)
submit GRAPH APP      run one workload through a serve daemon

``GRAPH`` is one of AMZ DCT EML OLS RAJ WNG (built at its simulation
scale) or a path to a Matrix Market file (profiled against the full-size
Table IV machine).

``run`` and ``sweep`` execute through the ``repro.runtime`` layer:
results are memoized per workload in a content-addressed cache
(``--cache-dir DIR``, ``--no-cache``), and ``sweep --jobs N`` fans
workloads across N worker nodes.  ``sweep --graphs``/``--apps``
restrict the sweep to a subset of the graph x application matrix (the
paper's six apps plus the added BFS, KC, TC, LP).
``sweep --prune-k K [--explore N]`` prunes each workload to the
model's top-K configurations (plus the normalization baseline and N
deterministic exploration picks) instead of the full Figure 5 grid —
see ``repro.model.pruning``.

Observability (``repro.obs``) is off by default and never changes
modeled numbers: ``--events PATH`` streams typed runtime events (unit
lifecycle, retries, worker-node crashes and leases, cache traffic) to a
JSON-lines log that ``tools/events_to_chrometrace.py`` renders as a
Chrome trace; ``--metrics`` prints an end-of-run metrics summary
(counters + histograms, including the ``--profile`` collector when both
are on).

Execution is fault tolerant: failing workloads are retried at once
(``--retries``), optionally bounded by a per-workload wall-clock
``--timeout``.  Under ``--keep-going`` (the default) a sweep completes
with the failed workloads reported separately (exit status 1);
``--fail-fast`` aborts on the first workload that exhausts its retries.
To resume an interrupted sweep, re-run the same command against the
same ``--cache-dir``: every completed workload prints ``(cached)``
before the first one still owed starts simulating.

``sweep --jobs N`` runs the sweep across N supervised worker nodes
coordinated through a crash-safe filesystem work queue, private unless
``--queue-dir DIR`` places it somewhere shared and inspectable
(``--queue-dir`` without ``--jobs`` runs one node over it).
Additional nodes — on this machine or any machine mounting the same
filesystem — join with ``repro worker QUEUE_DIR``; a node killed
mid-unit costs one lease reclaim, never the sweep.

``repro serve`` keeps the runtime resident: requests are deduplicated by
spec digest, warm digests answer straight from the result cache, cold
ones batch into plans under admission control (see DESIGN.md §14).
``repro submit`` and ``repro sweep --server URL`` are clients of that
daemon; ``sweep --server`` falls back to local execution when the
daemon is unreachable.
"""

from __future__ import annotations

import argparse
import math
import sys

from .configs import parse_config
from .graph import DEFAULT_SIM_SCALE, PAPER_DATASETS
from .harness import render_breakdown_bars, render_table
from .model import explain_prediction, predict_configuration, workload_profile
from .runtime import (
    BACKENDS,
    DEFAULT_LEASE_TTL,
    GraphRef,
    ResultCache,
    RetryPolicy,
    UnitExecutionError,
    UnitFailure,
    WorkloadSpec,
    load_graph,
    run_plan,
)
from .sim.config import scaled_system
from .taxonomy import APP_PROPERTIES, profile_graph

__all__ = ["main"]


def _resolve_ref(name: str) -> GraphRef:
    """A runtime graph reference for a dataset key or a .mtx path."""
    if name.upper() in PAPER_DATASETS:
        return GraphRef.dataset(name.upper())
    return GraphRef.mtx(name)


def _resolve_cache(args) -> ResultCache | None:
    """The result cache the flags select (None under ``--no-cache``)."""
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir)


def _resolve_policy(args) -> RetryPolicy:
    """The retry policy ``--retries``/``--timeout`` select."""
    return RetryPolicy(max_attempts=args.retries, timeout=args.timeout)


def _fault_kwargs(args) -> dict:
    """run_plan/run_sweep keywords selected by the fault-tolerance flags."""
    return {
        "policy": _resolve_policy(args),
        "keep_going": args.keep_going,
    }


def _print_failure(failure: UnitFailure) -> None:
    print(f"failed: {failure.label}: [{failure.kind}] {failure.exception} "
          f"after {failure.attempts} attempt(s): {failure.message}",
          file=sys.stderr)


def _served_outcome(envelope: dict, server: str):
    """The served ``ok`` or ``failed`` envelope's result or failure;
    ``ValueError`` naming ``server`` when its payload does not parse."""
    from .harness.runner import WorkloadResult

    what = "failure" if envelope.get("status") == "failed" else "result"
    try:
        if what == "failure":
            return UnitFailure.from_dict(envelope.get("failure"))
        return WorkloadResult.from_dict(envelope.get("result"))
    except ValueError as exc:
        raise ValueError(f"malformed {what} from {server}: {exc}") from None


def _cmd_datasets(_args) -> int:
    rows = []
    for key, dataset in PAPER_DATASETS.items():
        ref = dataset.paper
        rows.append({
            "Key": key,
            "Description": dataset.description,
            "Paper |V|": ref.vertices,
            "Paper |E|": ref.edges,
            "Classes (vol/reuse/imb)":
                f"{ref.volume_class}/{ref.reuse_class}/{ref.imbalance_class}",
            "Sim scale": DEFAULT_SIM_SCALE[key],
        })
    print(render_table(rows, title="Datasets (synthetic stand-ins)"))
    return 0


def _cmd_profile(args) -> int:
    ref = _resolve_ref(args.graph)
    profile = profile_graph(load_graph(ref), scaled_system(ref.scale))
    print(render_table([profile.as_row()],
                       title=f"Profile of {profile.name}"))
    return 0


def _cmd_predict(args) -> int:
    ref = _resolve_ref(args.graph)
    app = args.app.upper()
    if app not in APP_PROPERTIES:
        print(f"unknown app {app!r}; choose from {sorted(APP_PROPERTIES)}",
              file=sys.stderr)
        return 2
    workload = workload_profile(load_graph(ref), app,
                                scaled_system(ref.scale))
    for line in explain_prediction(workload):
        print(line)
    print(f"\nrecommended configuration: "
          f"{predict_configuration(workload).code}")
    return 0


def _start_obs(args):
    """Enable the observability layer when ``--events``/``--metrics`` ask.

    Returns the enabled :class:`~repro.obs.Observer`, or None when the
    flags leave observation off (the no-op fast path).
    """
    if not (getattr(args, "events", None) or getattr(args, "metrics",
                                                     False)):
        return None
    from . import obs

    return obs.enable(events=args.events)


def _finish_obs(args, observer) -> None:
    """Flush sinks and print the ``--metrics`` summary tables."""
    if observer is None:
        return
    from . import obs

    snapshot = observer.metrics.snapshot()
    obs.disable()
    if getattr(args, "events", None):
        print(f"\nevent log written to {args.events}")
    if not getattr(args, "metrics", False):
        return
    rows = [{"Counter": name, "Value": value}
            for name, value in snapshot["counters"].items()]
    rows.extend({"Counter": name, "Value": value}
                for name, value in snapshot["gauges"].items())
    if rows:
        print()
        print(render_table(rows, title="Metrics: counters"))
    hist_rows = [{
        "Histogram": name,
        "Count": summary["count"],
        "Mean": f"{summary['mean']:.4g}",
        "Min": f"{summary['min']:.4g}",
        "Max": f"{summary['max']:.4g}",
    } for name, summary in snapshot["histograms"].items()]
    if hist_rows:
        print()
        print(render_table(hist_rows, title="Metrics: histograms"))
    for name, payload in snapshot.get("sources", {}).items():
        print(f"\nsource {name!r}: {payload}")


def _start_profile(args) -> bool:
    """Enable the perf collector when ``--profile`` was passed.

    Profiling measures this process's trace-gen/simulate wall clock, so
    it forces uncached in-process execution (a cache hit or a worker
    process would leave nothing to measure here).
    """
    if not getattr(args, "profile", False):
        return False
    from .perf import collector

    collector.reset()
    collector.enabled = True
    return True


def _finish_profile() -> None:
    from .perf import collector, format_breakdown

    collector.enabled = False
    for line in format_breakdown(collector.snapshot()):
        print(line)


def _cmd_run(args) -> int:
    spec = _build_spec(args)
    profiling = _start_profile(args)
    observer = _start_obs(args)
    try:
        result = run_plan(
            [spec],
            cache=None if profiling else _resolve_cache(args),
            **_fault_kwargs(args))[0]
    except UnitExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _finish_obs(args, observer)
        return 1
    if isinstance(result, UnitFailure):
        _print_failure(result)
        _finish_obs(args, observer)
        return 1
    _print_workload(spec, result)
    _finish_obs(args, observer)
    if profiling:
        _finish_profile()
    return 0


def _split_choices(raw: str | None, universe: tuple[str, ...],
                   what: str) -> tuple[str, ...] | None:
    """Parse a comma-separated ``--graphs``/``--apps`` restriction."""
    if raw is None:
        return None
    chosen = tuple(item.strip().upper() for item in raw.split(",")
                   if item.strip())
    unknown = [item for item in chosen if item not in universe]
    if unknown:
        raise SystemExit(
            f"unknown {what} {', '.join(unknown)}; "
            f"choose from {', '.join(universe)}")
    return chosen


def _gap_cell(row) -> str:
    """The sweep table's Exact column; NaN gaps read as unmeasurable."""
    if row.prediction_exact:
        # A pruned row can match the best *simulated* config while the
        # true optimum was never run; label it rather than claim a hit.
        return "yes" if row.oracle_known else "yes (of simulated)"
    gap = row.prediction_gap
    if math.isnan(gap):
        return "no (not simulated)"
    return f"no ({gap:.2f}x)"


def _resolve_prune(args):
    """The pruning policy ``--prune-k``/``--explore`` select (else None)."""
    if getattr(args, "prune_k", None) is None:
        if getattr(args, "explore", 0):
            raise SystemExit("--explore only applies with --prune-k")
        return None
    from .model.pruning import PruningPolicy

    return PruningPolicy(k=args.prune_k, explore=args.explore)


def _print_sweep(sweep) -> int:
    """Render a completed sweep (local or served); 1 if units failed."""
    from .harness import flexibility_stats, format_pct

    rows = [{
        "Workload": f"{r.app}-{r.graph}",
        "Best": r.best,
        "Predicted": r.predicted,
        "Exact": _gap_cell(r),
    } for r in sweep.rows]
    print(render_table(rows, title="Sweep summary"))
    stats = flexibility_stats(sweep)
    unknown = sweep.oracle_unknown_rows
    suffix = (f" ({unknown} pruned row(s) lack the full grid; "
              f"best-of-simulated matches: {sweep.exact_of_simulated})"
              if unknown else "")
    print(f"\nmodel exact: {sweep.exact_predictions}/{len(sweep.rows)}; "
          f"default loses on {stats.default_losses} workloads "
          f"(avg reduction {format_pct(stats.avg_reduction)})"
          + suffix)
    if sweep.failures:
        print(f"\n{len(sweep.failures)} workload(s) failed:",
              file=sys.stderr)
        for failure in sweep.failures:
            _print_failure(failure)
        return 1
    return 0


def _sweep_via_server(args, graphs, apps):
    """Run the sweep through a serve daemon.

    Returns the :class:`~repro.harness.sweep.SweepResult`, or None when
    no daemon answers at ``--server`` (the caller falls back to local
    execution).  Simulation happens server-side; only the cheap
    aggregation (profiles + model predictions) runs here.
    """
    from .harness.sweep import aggregate_sweep, plan_sweep
    from .serve import ServeClient, ServeUnavailable

    # Planned exactly as run_sweep plans it (same subsets, same digests),
    # so the daemon's cache and dedup see the units a local run caches.
    plan, _ = plan_sweep(graphs, apps, max_iters=args.iters,
                         prune=_resolve_prune(args))
    try:
        with ServeClient(args.server, client_id="cli-sweep") as client:
            client.health()
            print(f"submitting {len(plan)} unit(s) to {args.server}",
                  flush=True)
            envelopes = client.submit_many(list(plan))
    except ServeUnavailable as exc:
        print(f"warning: {exc}; running the sweep locally",
              file=sys.stderr)
        return None
    workloads = []
    for spec, envelope in zip(plan, envelopes):
        status = envelope.get("status")
        if status in ("ok", "failed"):
            workloads.append(_served_outcome(envelope, args.server))
        else:  # still rejected after the client's retry budget
            workloads.append(UnitFailure(
                digest=envelope.get("digest", spec.digest()),
                label=spec.label, kind="rejected", attempts=0,
                exception="ServeRejected",
                message=f"admission control ({envelope.get('reason')})"))
        print(f"  {spec.label} ({envelope.get('source', status)})",
              flush=True)
    return aggregate_sweep(plan, workloads, graphs, apps)


def _cmd_sweep(args) -> int:
    from .harness import APPS, GRAPHS, run_sweep

    graphs = _split_choices(args.graphs, GRAPHS, "graph") or GRAPHS
    apps = _split_choices(args.apps, APPS, "app") or APPS
    _resolve_prune(args)  # validates --prune-k/--explore up front
    if args.server:
        try:
            sweep = _sweep_via_server(args, graphs, apps)
        except ValueError as exc:  # a served payload that does not parse
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if sweep is not None:
            return _print_sweep(sweep)
        # unreachable daemon: fall through to the local path
    profiling = _start_profile(args)
    observer = _start_obs(args)
    try:
        sweep = run_sweep(
            graphs=graphs,
            apps=apps,
            max_iters=args.iters,
            prune_k=args.prune_k,
            explore=args.explore,
            jobs=1 if profiling else args.jobs,
            cache=None if profiling else _resolve_cache(args),
            progress=lambda label: print(f"  {label}", flush=True),
            backend="serial" if profiling else args.backend,
            queue_dir=None if profiling else args.queue_dir,
            lease_ttl=args.lease_ttl,
            **_fault_kwargs(args),
        )
    except UnitExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _finish_obs(args, observer)
        return 1
    status = _print_sweep(sweep)
    _finish_obs(args, observer)
    if profiling:
        _finish_profile()
    return status


def _build_spec(args) -> WorkloadSpec:
    """The workload spec ``run``/``submit`` share (same flags, same key)."""
    ref = _resolve_ref(args.graph)
    configs = None
    if args.configs:
        configs = [parse_config(code) for code in args.configs.split(",")]
    return WorkloadSpec.for_workload(
        args.app.upper(), ref,
        configs=configs,
        system=scaled_system(ref.scale),
        max_iters=args.iters,
    )


def _print_workload(spec: WorkloadSpec, result, source: str | None = None) \
        -> None:
    suffix = f" (served: {source})" if source else ""
    print(f"{spec.app} on {result.graph_name}: normalized execution time"
          f"{suffix}")
    for code, value in result.normalized().items():
        print(render_breakdown_bars(
            code, result.results[code].breakdown, value))
    print(f"best: {result.best_code}")


def _cmd_serve(args) -> int:
    from .serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        uds=args.uds,
        cache_dir=args.cache_dir,
        backend=args.backend,
        jobs=args.jobs,
        policy=_resolve_policy(args),
    )
    observer = _start_obs(args)
    try:
        run_server(config)
    finally:
        _finish_obs(args, observer)
    return 0


def _cmd_submit(args) -> int:
    from .serve import ServeClient, ServeError, ServeRejected, \
        ServeUnavailable

    spec = _build_spec(args)
    try:
        with ServeClient(args.server, client_id=args.client) as client:
            envelope = client.submit(spec, max_wait=args.max_wait)
    except ServeRejected as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except (ServeUnavailable, ServeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        outcome = _served_outcome(envelope, args.server)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not outcome.ok:
        _print_failure(outcome)
        return 1
    _print_workload(spec, outcome, source=envelope.get("source"))
    return 0


def _cmd_worker(args) -> int:
    import os

    from .runtime.worker import worker_config, worker_main

    node = args.node or f"worker-{os.getpid()}"
    config = worker_config(
        args.queue_dir, node,
        lease_ttl=args.lease_ttl,
        policy=_resolve_policy(args),
        poll=args.poll,
        events=args.events,
    )
    processed = worker_main(config)
    print(f"{node}: processed {processed} unit(s); queue drained")
    return 0


def _checked(cast, ok, rule: str):
    """An argparse ``type=`` that casts, then enforces ``rule``."""
    def parse(text: str):
        value = cast(text)  # argparse reports a ValueError by __name__
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = cast.__name__
    return parse


_COUNT = _checked(int, lambda value: value >= 1, ">= 1")
_NON_NEGATIVE = _checked(int, lambda value: value >= 0, ">= 0")
_SECONDS = _checked(float, lambda value: value > 0, "> 0")
_PORT = _checked(int, lambda value: 0 <= value <= 65535, "in 0-65535")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list dataset stand-ins")

    p_profile = sub.add_parser("profile", help="Table II profile of a graph")
    p_profile.add_argument("graph")

    p_predict = sub.add_parser("predict", help="model recommendation")
    p_predict.add_argument("graph")
    p_predict.add_argument("app")

    cache_flags = argparse.ArgumentParser(add_help=False)
    cache_flags.add_argument("--cache-dir", default=None,
                             help="result-cache directory (default "
                                  "$REPRO_CACHE_DIR or ~/.cache/repro)")
    cache_flags.add_argument("--no-cache", action="store_true",
                             help="simulate everything; skip the result "
                                  "cache")

    retry_flags = argparse.ArgumentParser(add_help=False)
    retry_flags.add_argument("--retries", type=_COUNT,
                             default=RetryPolicy.max_attempts, metavar="N",
                             help="attempts per workload (default "
                                  f"{RetryPolicy.max_attempts})")
    retry_flags.add_argument("--timeout", type=_SECONDS, default=None,
                             metavar="SECONDS",
                             help="per-workload wall-clock limit "
                                  "(default: none)")

    fault_flags = argparse.ArgumentParser(add_help=False,
                                          parents=[retry_flags])
    mode = fault_flags.add_mutually_exclusive_group()
    mode.add_argument("--keep-going", dest="keep_going",
                      action="store_true", default=True,
                      help="finish the batch even if workloads fail; "
                           "report failures separately (default)")
    mode.add_argument("--fail-fast", dest="keep_going",
                      action="store_false",
                      help="abort on the first workload that exhausts "
                           "its retries")

    perf_flags = argparse.ArgumentParser(add_help=False)
    perf_flags.add_argument("--profile", action="store_true",
                            help="print a trace-gen vs. simulate wall-"
                                 "clock breakdown afterwards (forces "
                                 "uncached in-process execution)")

    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument("--events", default=None, metavar="PATH",
                           help="stream runtime events (unit lifecycle, "
                                "retries, worker-node crashes and leases, "
                                "cache traffic) to this JSON-lines log; "
                                "render with tools/events_to_chrometrace.py")
    obs_flags.add_argument("--metrics", action="store_true",
                           help="print a metrics summary (counters + "
                                "histograms) after the run")

    p_run = sub.add_parser("run",
                           parents=[cache_flags, fault_flags, perf_flags,
                                    obs_flags],
                           help="simulate one workload")
    p_run.add_argument("graph")
    p_run.add_argument("app")
    p_run.add_argument("--configs", help="comma-separated codes (e.g. "
                                         "TG0,SGR,SDR)")
    p_run.add_argument("--iters", type=_COUNT, default=None,
                       help="cap simulated iterations")

    p_sweep = sub.add_parser("sweep",
                             parents=[cache_flags, fault_flags, perf_flags,
                                      obs_flags],
                             help="full 36-workload sweep (slow)")
    p_sweep.add_argument("--iters", type=_COUNT, default=None)
    p_sweep.add_argument("--jobs", type=_COUNT, default=1,
                         help="worker nodes for the sweep (with the "
                              "default auto backend, 1 without "
                              "--queue-dir = in-process serial "
                              "execution; --profile forces serial)")
    p_sweep.add_argument("--graphs", default=None, metavar="KEYS",
                         help="comma-separated dataset keys to sweep "
                              "(default: all six)")
    p_sweep.add_argument("--apps", default=None, metavar="APPS",
                         help="comma-separated applications to sweep "
                              "(default: every registered kernel)")
    p_sweep.add_argument("--backend", default="auto",
                         choices=list(BACKENDS),
                         help="execution backend (default auto: process "
                              "when --jobs > 1 or --queue-dir is given, "
                              "else serial; process: exactly --jobs "
                              "local worker nodes over the work queue)")
    p_sweep.add_argument("--queue-dir", default=None, metavar="DIR",
                         help="work-queue directory for the worker nodes "
                              "(default: private temp dir; name one so "
                              "'repro worker' nodes can join, interrupted "
                              "queues survive, and done/ records which "
                              "node completed each unit)")
    p_sweep.add_argument("--lease-ttl", type=_SECONDS,
                         default=DEFAULT_LEASE_TTL, metavar="SECONDS",
                         help="worker-node lease time-to-live before a "
                              "stalled node's unit is stolen "
                              f"(default {DEFAULT_LEASE_TTL:g})")
    p_sweep.add_argument("--prune-k", type=_COUNT, default=None,
                         metavar="K",
                         help="prediction-guided pruning: simulate only "
                              "the model's top-K configurations per "
                              "workload (plus the baseline) instead of "
                              "the full Figure 5 grid")
    p_sweep.add_argument("--explore", type=_NON_NEGATIVE, default=0,
                         metavar="N",
                         help="with --prune-k, also simulate N "
                              "deterministically sampled configurations "
                              "outside the top-K (default 0)")
    p_sweep.add_argument("--server", default=None, metavar="URL",
                         help="run the sweep through a serve daemon "
                              "(http://host:port or unix:///path.sock); "
                              "falls back to local execution when the "
                              "daemon is unreachable")

    p_worker = sub.add_parser(
        "worker", parents=[retry_flags],
        help="join a sweep's named work queue as one worker node")
    p_worker.add_argument("queue_dir",
                          help="the sweep's work-queue directory "
                               "(the coordinator's --queue-dir)")
    p_worker.add_argument("--node", default=None, metavar="NAME",
                          help="node name for leases/done markers/events "
                               "(default worker-<pid>)")
    p_worker.add_argument("--lease-ttl", type=_SECONDS,
                          default=DEFAULT_LEASE_TTL, metavar="SECONDS",
                          help="lease time-to-live this node claims with "
                               f"(default {DEFAULT_LEASE_TTL:g})")
    p_worker.add_argument("--poll", type=_SECONDS, default=0.05,
                          metavar="SECONDS",
                          help="idle sleep between claim scans "
                               "(default 0.05)")
    p_worker.add_argument("--events", action="store_true",
                          help="journal this node's runtime events to "
                               "events/<node>.jsonl inside the queue")

    p_serve = sub.add_parser(
        "serve", parents=[obs_flags, retry_flags],
        help="run the sweep-as-a-service daemon")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="TCP bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=_PORT, default=None, metavar="PORT",
                         help="TCP port to listen on (0 = ephemeral; "
                              "omit for UDS-only)")
    p_serve.add_argument("--uds", default=None, metavar="PATH",
                         help="Unix-domain socket path to listen on")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="result-cache directory the daemon serves "
                              "from (default $REPRO_CACHE_DIR or "
                              "~/.cache/repro)")
    p_serve.add_argument("--backend", default="auto",
                         choices=list(BACKENDS),
                         help="executor backend for cold plans "
                              "(default auto: --jobs worker nodes per "
                              "dispatch thread, alive as long as the "
                              "daemon; serial simulates inside the daemon "
                              "process)")
    p_serve.add_argument("--jobs", type=_COUNT, default=1,
                         help="worker nodes per dispatch thread "
                              "(default 1)")

    p_submit = sub.add_parser(
        "submit", help="run one workload through a serve daemon")
    p_submit.add_argument("graph")
    p_submit.add_argument("app")
    p_submit.add_argument("--server", required=True, metavar="URL",
                          help="daemon endpoint (http://host:port or "
                               "unix:///path.sock)")
    p_submit.add_argument("--configs", help="comma-separated codes (e.g. "
                                            "TG0,SGR,SDR)")
    p_submit.add_argument("--iters", type=_COUNT, default=None,
                          help="cap simulated iterations")
    p_submit.add_argument("--client", default=None, metavar="NAME",
                          help="client id for admission-control fairness "
                               "(default: anonymous)")
    p_submit.add_argument("--max-wait", type=float, default=60.0,
                          metavar="SECONDS",
                          help="how long to keep retrying admission "
                               "rejections (default 60)")
    return parser


_COMMANDS = {
    "datasets": _cmd_datasets,
    "profile": _cmd_profile,
    "predict": _cmd_predict,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "worker": _cmd_worker,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and args.port is None and args.uds is None:
        parser.error("serve needs --port and/or --uds")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
