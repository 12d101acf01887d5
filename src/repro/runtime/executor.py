"""Pluggable executors: run workload specs serially or across processes.

An :class:`Executor` turns workload specs into
:class:`~repro.harness.runner.WorkloadResult` objects.  The serial
executor runs in-process; the parallel executor fans units across a
``ProcessPoolExecutor`` (workload-level parallelism — each unit is one
``run_workload`` call) and streams completed units back as they finish.

Both executors are fault tolerant: a failing unit is retried under a
:class:`~repro.runtime.retry.RetryPolicy` (exponential backoff with
deterministic jitter, optional per-unit wall-clock timeout) and, when
its budget runs out, surfaces as a structured
:class:`~repro.runtime.faults.UnitFailure` *in the result stream*
instead of an exception that aborts the batch.  The parallel executor
additionally survives worker-process death (``BrokenProcessPool``): it
respawns the pool, requeues the victims one at a time (probation — a
repeat crash then charges only the guilty spec), and quarantines a spec
that keeps killing workers once its attempts are spent.  Hung workers are
handled the only way a process pool allows — the whole pool is recycled
and innocent in-flight units are resubmitted without being charged an
attempt.

Graphs are rebuilt from their :class:`~repro.runtime.spec.GraphRef` and
memoized per process, so a worker simulating six apps on one dataset
generates that dataset once.  Results cross the process boundary as
``to_dict`` payloads — the same representation the result cache stores —
so both paths exercise one serialization format.
"""

from __future__ import annotations

import concurrent.futures as cf
import logging
import os
import signal
import time
from collections import OrderedDict, deque
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator, Sequence

from ..graph.csr import CSRGraph
from ..harness import runner as _runner
from ..harness.runner import WorkloadResult
from ..obs import OBSERVER as _obs
from .cache import ResultCache
from .faults import (
    FaultInjector,
    UnitExecutionError,
    UnitFailure,
    UnitTimeoutError,
    failure_kind,
)
from .manifest import RunManifest
from .retry import RetryPolicy
from .spec import ExecutionPlan, GraphRef, WorkloadSpec

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "execute_spec",
    "run_unit",
    "load_graph",
    "run_plan",
]

_log = logging.getLogger(__name__)

# Per-process memo of materialized graphs.  Bounded: a full sweep touches
# six datasets, so a handful of entries covers the working set.
_GRAPH_CACHE: OrderedDict[GraphRef, CSRGraph] = OrderedDict()
_GRAPH_CACHE_LIMIT = 8


def load_graph(ref: GraphRef) -> CSRGraph:
    """Materialize ``ref``, memoized per process (LRU, small bound)."""
    graph = _GRAPH_CACHE.get(ref)
    if graph is None:
        graph = ref.load()
        _GRAPH_CACHE[ref] = graph
        while len(_GRAPH_CACHE) > _GRAPH_CACHE_LIMIT:
            _GRAPH_CACHE.popitem(last=False)
    else:
        _GRAPH_CACHE.move_to_end(ref)
    return graph


def execute_spec(spec: WorkloadSpec) -> WorkloadResult:
    """Run one unit in this process (the executors' common kernel)."""
    graph = load_graph(spec.graph)
    result = _runner.run_workload(
        spec.app,
        graph,
        configs=spec.configurations(),
        system=spec.system,
        max_iters=spec.max_iters,
        seed=spec.seed,
    )
    # The spec names its normalization bar explicitly; honor it even
    # when a restricted config subset was not handed over baseline-first
    # (run_workload defaults to the first config it received).
    result.baseline = spec.baseline
    return result


def run_unit(
    spec: WorkloadSpec,
    policy: RetryPolicy | None = None,
    injector: FaultInjector | None = None,
    execute: Callable[[WorkloadSpec], WorkloadResult] | None = None,
) -> WorkloadResult | UnitFailure:
    """Run one unit in-process with retry/backoff; never raises for it.

    Returns the result, or a :class:`UnitFailure` once the policy's
    attempts are exhausted.  In-process execution cannot be preempted,
    so a wall-clock overrun is only detectable *after* an attempt
    finishes — at which point a valid result of a deterministic
    simulation is already in hand.  That result is **returned**, not
    discarded: re-running the identical unit would spend the retry
    budget recomputing the same bits and, on the final attempt, throw a
    good result away as a :class:`UnitFailure`.  The overrun is recorded
    instead — a ``unit.overrun`` event on the observer and a
    ``deadline_overrun`` attribute (in-memory only, never serialized)
    that :func:`run_plan` journals to the manifest.  The process-pool
    executor enforces the timeout preemptively, so this path only
    concerns serial execution.
    """
    policy = policy or RetryPolicy()
    digest = spec.digest()
    started = time.monotonic()
    failure: UnitFailure | None = None
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            _obs.emit("unit.retried", digest=digest, label=spec.label,
                      attempt=attempt,
                      cause=failure.kind if failure is not None else None)
            if _obs.enabled:
                _obs.metrics.counter("units.retried").inc()
            time.sleep(policy.delay_for(attempt - 1, digest))
        _obs.emit("unit.started", digest=digest, label=spec.label,
                  attempt=attempt)
        attempt_started = time.monotonic()
        try:
            if injector is not None:
                injector.before_execute(spec, attempt, in_worker=False)
            result = (execute or execute_spec)(spec)
        except Exception as exc:
            failure = UnitFailure.from_exception(
                spec, exc, attempts=attempt,
                elapsed=time.monotonic() - started)
            continue
        elapsed = time.monotonic() - attempt_started
        if policy.timeout is not None and elapsed > policy.timeout:
            _obs.emit("unit.overrun", digest=digest, label=spec.label,
                      elapsed=elapsed, budget=policy.timeout,
                      attempt=attempt)
            if _obs.enabled:
                _obs.metrics.counter("units.overrun").inc()
            try:
                result.deadline_overrun = elapsed
            except AttributeError:
                pass  # slotted/bare result doubles cannot carry the marker
        _obs.emit("unit.finished", digest=digest, label=spec.label,
                  attempt=attempt, elapsed=elapsed)
        if _obs.enabled:
            _obs.metrics.counter("units.finished").inc()
        return result
    _obs.emit("unit.failed", digest=digest, label=spec.label,
              attempts=failure.attempts, cause=failure.kind,
              message=failure.message)
    if _obs.enabled:
        _obs.metrics.counter("units.failed").inc()
    return failure


def _worker_execute(payload: dict) -> dict:
    """Process-pool entry point: spec dict in, result dict out.

    The payload also carries the attempt number, the retry backoff delay
    (slept worker-side so the manager loop never blocks on a backoff),
    and the fault injector — which must act *inside* the worker so an
    injected crash kills a real process.
    """
    delay = payload.get("delay") or 0.0
    if delay > 0:
        time.sleep(delay)
    spec = WorkloadSpec.from_dict(payload["spec"])
    injector_data = payload.get("injector")
    if injector_data is not None:
        injector = FaultInjector.from_dict(injector_data)
        injector.before_execute(spec, payload.get("attempt", 1),
                                in_worker=True)
    return execute_spec(spec).to_dict()


def _worker_init() -> None:
    """Pool-worker start-up: drop the signal wiring ``fork`` inherited.

    A worker forked from the serve daemon after asyncio installed its
    SIGINT/SIGTERM handlers would ignore the SIGTERM a hang recycle
    sends, and relay it through the inherited wake-up fd to the daemon
    as the daemon's own shutdown signal.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)


def _kill_pool(pool: cf.ProcessPoolExecutor) -> None:
    """Best-effort immediate teardown: terminate workers, drop the queue.

    Used when a worker hangs past its deadline or the run is interrupted
    (Ctrl-C, generator close) — ``shutdown`` alone would wait forever on
    a hung worker and leak processes on interrupt.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - platform-specific races
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - already broken pools
        pass
    for process in processes:
        try:
            process.join(timeout=1.0)
        except Exception:  # pragma: no cover
            pass


class Executor:
    """Strategy interface: stream ``(position, outcome)`` pairs.

    ``run`` yields one pair per spec, in any completion order;
    ``position`` indexes into the ``specs`` sequence it was handed and
    ``outcome`` is a :class:`WorkloadResult` or, for a unit that
    exhausted its retries, a :class:`UnitFailure`.

    An executor may hold resources across runs (the worker pool of
    :class:`ParallelExecutor`): ``start`` acquires them up front,
    ``close`` releases them, and leaving a ``with`` block closes.  Both
    are no-ops for executors that hold nothing between runs.
    """

    def run(
        self, specs: Sequence[WorkloadSpec]
    ) -> Iterator[tuple[int, WorkloadResult | UnitFailure]]:
        raise NotImplementedError

    def start(self) -> None:
        """Acquire long-lived resources now instead of on the first run."""

    def close(self) -> None:
        """Release long-lived resources; a later run acquires them anew."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every unit in the calling process, in order."""

    def __init__(self, policy: RetryPolicy | None = None,
                 injector: FaultInjector | None = None) -> None:
        self.policy = policy
        self.injector = injector

    def run(
        self, specs: Sequence[WorkloadSpec]
    ) -> Iterator[tuple[int, WorkloadResult | UnitFailure]]:
        for index, spec in enumerate(specs):
            yield index, run_unit(spec, policy=self.policy,
                                  injector=self.injector)


class _Unit:
    """Book-keeping for one spec moving through the parallel manager."""

    __slots__ = ("position", "spec", "attempt", "first_started",
                 "attempt_started", "deadline", "pool")

    def __init__(self, position: int, spec: WorkloadSpec) -> None:
        self.position = position
        self.spec = spec
        self.attempt = 1
        self.first_started: float | None = None
        self.attempt_started: float | None = None
        self.deadline: float | None = None
        self.pool: object | None = None

    def elapsed(self, now: float) -> float:
        """Monotonic seconds since this unit first started.

        Falls back to the latest attempt's start, then to 0.0, for a
        unit that somehow settles before any submission stamped it —
        ``now - 0.0`` would otherwise read as time since the monotonic
        epoch (hours of bogus ``elapsed`` in failure records).
        """
        started = (self.first_started if self.first_started is not None
                   else self.attempt_started)
        return now - started if started is not None else 0.0


class ParallelExecutor(Executor):
    """Fan units across worker processes; stream back as they complete.

    Units and results cross the boundary as dicts (see module docstring),
    so parallel results are bit-identical to serial ones after a
    ``from_dict`` — which the runtime tests assert.  At most ``jobs``
    units are in flight at once, so a submit time approximates a start
    time and per-unit deadlines are meaningful.

    The pool of ``jobs`` workers (``None``: one per core) lives as long
    as the executor: forked by the first :meth:`run` (or :meth:`start`),
    reused by later runs, replaced in place after a crash or hang, and
    shut down by :meth:`close`.  A run that is interrupted mid-flight
    kills its pool; the next run forks a fresh one.  One executor serves
    one thread at a time.
    """

    def __init__(self, jobs: int | None = None,
                 policy: RetryPolicy | None = None,
                 injector: FaultInjector | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs or os.cpu_count() or 1
        self.policy = policy
        self.injector = injector
        self._pool: cf.ProcessPoolExecutor | None = None

    def _new_pool(self) -> cf.ProcessPoolExecutor:
        self._pool = cf.ProcessPoolExecutor(max_workers=self.jobs,
                                            initializer=_worker_init)
        return self._pool

    def start(self) -> None:
        """Fork the workers now, on the calling thread (idempotent).

        Waiting on one trivial task makes the fork happen here rather
        than on whichever thread runs first — so a caller about to
        start threads can fork while it is still single-threaded.
        """
        if self._pool is None:
            self._new_pool().submit(int).result()

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def run(
        self, specs: Sequence[WorkloadSpec]
    ) -> Iterator[tuple[int, WorkloadResult | UnitFailure]]:
        policy = self.policy or RetryPolicy()
        injector_payload = (self.injector.to_dict()
                            if self.injector is not None else None)
        workers = self.jobs
        pending: deque[_Unit] = deque(
            _Unit(position, spec) for position, spec in enumerate(specs))
        inflight: dict[cf.Future, _Unit] = {}
        pool = self._pool or self._new_pool()
        # After a worker crash every in-flight future breaks, so blame
        # cannot be pinned on one spec.  Probation serializes the next
        # submissions (one unit in flight) until something completes, so
        # a repeat crash charges only the guilty spec instead of
        # bleeding innocent units' retry budgets dry.
        probe = False

        def submit(unit: _Unit) -> None:
            nonlocal pool
            now = time.monotonic()
            unit.attempt_started = now
            if unit.first_started is None:
                unit.first_started = now
            delay = (policy.delay_for(unit.attempt - 1, unit.spec.digest())
                     if unit.attempt > 1 else 0.0)
            payload = {
                "spec": unit.spec.to_dict(),
                "attempt": unit.attempt,
                "delay": delay,
                "injector": injector_payload,
            }
            _obs.emit("unit.started", digest=unit.spec.digest(),
                      label=unit.spec.label, attempt=unit.attempt)
            if _obs.enabled:
                _obs.metrics.counter("units.started").inc()
            try:
                future = pool.submit(_worker_execute, payload)
            except (BrokenProcessPool, RuntimeError):
                # Pool died between rounds; recycle once and retry.
                _obs.emit("pool.recycle", reason="submit", requeued=0)
                if _obs.enabled:
                    _obs.metrics.counter("pool.recycles").inc()
                _kill_pool(pool)
                pool = self._new_pool()
                future = pool.submit(_worker_execute, payload)
            unit.deadline = (now + delay + policy.timeout
                             if policy.timeout is not None else None)
            unit.pool = pool
            inflight[future] = unit

        def settle(unit: _Unit,
                   exception: BaseException) -> UnitFailure | None:
            """Requeue for another attempt, or build the unit's failure."""
            unit.pool = None
            if unit.attempt < policy.max_attempts:
                unit.attempt += 1
                unit.deadline = None
                pending.append(unit)
                _obs.emit("unit.retried", digest=unit.spec.digest(),
                          label=unit.spec.label, attempt=unit.attempt,
                          cause=failure_kind(exception))
                if _obs.enabled:
                    _obs.metrics.counter("units.retried").inc()
                return None
            failure = UnitFailure.from_exception(
                unit.spec, exception, attempts=unit.attempt,
                elapsed=unit.elapsed(time.monotonic()))
            _obs.emit("unit.failed", digest=failure.digest,
                      label=failure.label, attempts=failure.attempts,
                      cause=failure.kind, message=failure.message)
            if _obs.enabled:
                _obs.metrics.counter("units.failed").inc()
            if failure.quarantined:
                _obs.emit("unit.quarantined", digest=failure.digest,
                          label=failure.label, attempts=failure.attempts)
                if _obs.enabled:
                    _obs.metrics.counter("units.quarantined").inc()
            return failure

        try:
            while pending or inflight:
                limit = 1 if probe else workers
                while pending and len(inflight) < limit:
                    unit = pending.popleft()
                    if probe:
                        # This unit is the probe: it flies alone so a
                        # repeat crash can be blamed on it specifically.
                        _obs.emit("pool.probation",
                                  digest=unit.spec.digest(),
                                  label=unit.spec.label,
                                  attempt=unit.attempt)
                    submit(unit)

                deadlines = [unit.deadline for unit in inflight.values()
                             if unit.deadline is not None]
                wait_for = (max(0.0, min(deadlines) - time.monotonic())
                            if deadlines else None)
                done, _ = cf.wait(set(inflight), timeout=wait_for,
                                  return_when=cf.FIRST_COMPLETED)

                ready: list[tuple[int, WorkloadResult | UnitFailure]] = []
                crashed = False
                broken_current: list[_Unit] = []
                for future in done:
                    unit = inflight.pop(future)
                    exception = future.exception()
                    if exception is None:
                        unit.pool = None
                        probe = False
                        _obs.emit("unit.finished",
                                  digest=unit.spec.digest(),
                                  label=unit.spec.label,
                                  attempt=unit.attempt,
                                  elapsed=unit.elapsed(time.monotonic()))
                        if _obs.enabled:
                            _obs.metrics.counter("units.finished").inc()
                        ready.append((unit.position,
                                      WorkloadResult.from_dict(
                                          future.result())))
                        continue
                    if isinstance(exception, BrokenProcessPool):
                        # Only a break of the *current* pool needs a
                        # respawn; stale futures from an already-replaced
                        # pool resolve broken too, but their pool is long
                        # gone — those victims are innocent by
                        # construction (the guilty unit was identified
                        # when their pool died) and requeue uncharged.
                        # The same distinction scopes the crash event:
                        # one worker death breaks every sibling future,
                        # but it is one crash, not one per victim.
                        if unit.pool is pool:
                            if not crashed:
                                _obs.emit("worker.crash",
                                          digest=unit.spec.digest(),
                                          label=unit.spec.label,
                                          attempt=unit.attempt)
                                if _obs.enabled:
                                    _obs.metrics.counter(
                                        "worker.crashes").inc()
                            crashed = True
                            broken_current.append(unit)
                        else:
                            unit.pool = None
                            unit.deadline = None
                            pending.append(unit)
                        continue
                    outcome = settle(unit, exception)
                    if outcome is not None:
                        ready.append((unit.position, outcome))

                # Attribute the crash.  A unit that broke the pool while
                # flying *alone* is definitively guilty and is charged an
                # attempt; when siblings were aboard, blame cannot be
                # pinned, so every victim requeues uncharged and
                # probation (below) isolates the guilty spec on its next
                # flight.  Without this distinction a crashy spec bleeds
                # innocent units' retry budgets dry.
                if broken_current:
                    solo = len(broken_current) == 1 and not inflight
                    if solo:
                        guilty = broken_current[0]
                        outcome = settle(guilty, BrokenProcessPool(
                            "worker process died"))
                        if outcome is not None:
                            ready.append((guilty.position, outcome))
                    else:
                        for unit in broken_current:
                            unit.pool = None
                            unit.deadline = None
                            pending.append(unit)

                now = time.monotonic()
                overdue = any(
                    unit.deadline is not None and now >= unit.deadline
                    for unit in inflight.values())
                if overdue:
                    # A hung worker cannot be cancelled one-off; recycle
                    # the whole pool.  Classify *before* the kill — the
                    # kill itself breaks every other in-flight future —
                    # and resubmit innocent victims without charging
                    # them an attempt.
                    victims, inflight = inflight, {}
                    requeue: list[_Unit] = []
                    for future, unit in victims.items():
                        if future.done():
                            exception = future.exception()
                            if exception is None:
                                unit.pool = None
                                probe = False
                                ready.append((unit.position,
                                              WorkloadResult.from_dict(
                                                  future.result())))
                            else:
                                outcome = settle(unit, exception)
                                if outcome is not None:
                                    ready.append((unit.position, outcome))
                        elif (unit.deadline is not None
                              and now >= unit.deadline):
                            outcome = settle(unit, UnitTimeoutError(
                                f"{unit.spec.label} exceeded the "
                                f"{policy.timeout:g}s wall-clock limit "
                                f"(attempt {unit.attempt})"))
                            if outcome is not None:
                                ready.append((unit.position, outcome))
                        else:
                            unit.pool = None
                            unit.deadline = None
                            requeue.append(unit)
                    _obs.emit("pool.recycle", reason="hang",
                              requeued=len(requeue))
                    if _obs.enabled:
                        _obs.metrics.counter("pool.recycles").inc()
                    _kill_pool(pool)
                    pool = self._new_pool()
                    pending.extendleft(reversed(requeue))
                elif crashed:
                    # Worker death poisons the executor; replace it.  Its
                    # other in-flight futures are already failed by the
                    # pool machinery and resolve as BrokenProcessPool on
                    # the next pass through this loop.
                    _obs.emit("pool.recycle", reason="crash",
                              requeued=len(inflight))
                    if _obs.enabled:
                        _obs.metrics.counter("pool.recycles").inc()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = self._new_pool()
                    probe = True

                for item in ready:
                    yield item
        finally:
            if pending or inflight:
                # Interrupted mid-run (Ctrl-C / generator close): cancel
                # queued futures and terminate workers instead of
                # leaking them.
                _kill_pool(pool)
                self._pool = None


def make_executor(jobs: int | None = 1,
                  policy: RetryPolicy | None = None,
                  injector: FaultInjector | None = None) -> Executor:
    """``jobs`` <= 1 -> serial; otherwise a process pool of that width."""
    if jobs is not None and jobs <= 1:
        return SerialExecutor(policy=policy, injector=injector)
    return ParallelExecutor(jobs, policy=policy, injector=injector)


def _as_manifest(
    manifest: RunManifest | str | os.PathLike | None,
) -> RunManifest | None:
    if manifest is None or isinstance(manifest, RunManifest):
        return manifest
    return RunManifest(manifest)


def run_plan(
    plan: ExecutionPlan | Sequence[WorkloadSpec],
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    executor: Executor | None = None,
    progress: Callable[[str], None] | None = None,
    policy: RetryPolicy | None = None,
    injector: FaultInjector | None = None,
    keep_going: bool = True,
    manifest: RunManifest | str | os.PathLike | None = None,
) -> list[WorkloadResult | UnitFailure]:
    """Execute a plan; return outcomes in plan order.

    Cached units are restored without simulation; the rest run on
    ``executor`` (built from ``jobs``/``policy``/``injector`` when not
    given) and are written back to ``cache``.  ``progress`` receives one
    label per completed unit, tagged ``(cached)`` for cache hits and
    ``(failed: <kind>)`` for failures.

    Failure semantics: each unit is retried per ``policy`` (default: 3
    attempts, exponential backoff).  Under ``keep_going`` (the default)
    a unit that exhausts its budget occupies its plan slot as a
    :class:`UnitFailure` and the rest of the plan still runs; with
    ``keep_going=False`` the first terminal failure raises
    :class:`UnitExecutionError` and outstanding work is cancelled.  A
    failed ``cache.put`` (read-only directory, disk full) logs a warning
    and continues — losing memoization, never results.  ``manifest``
    (a :class:`RunManifest` or path) journals every outcome
    incrementally, so an interrupted sweep resumes from cache + manifest.
    """
    units = list(plan)
    manifest = _as_manifest(manifest)
    results: list[WorkloadResult | UnitFailure | None] = [None] * len(units)
    _obs.emit("plan.started", units=len(units), jobs=jobs)

    pending: list[int] = []
    for index, spec in enumerate(units):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            results[index] = hit
            _obs.emit("unit.cached", digest=spec.digest(),
                      label=spec.label)
            if _obs.enabled:
                _obs.metrics.counter("units.cached").inc()
            if manifest is not None:
                manifest.record(spec.digest(), spec.label, "cached")
            if progress is not None:
                progress(f"{spec.label} (cached)")
        else:
            pending.append(index)
    cache_hits = len(units) - len(pending)

    # Coalesce duplicate digests within the cold batch: the first
    # occurrence simulates, later occurrences share its outcome object.
    # A sweep grid (or a --resume replay) can legitimately contain the
    # same spec twice; simulating it twice wastes a slot and races both
    # writers at the same cache path.
    primary_at: dict[str, int] = {}
    followers: dict[int, list[int]] = {}
    deduped: list[int] = []
    for index in pending:
        spec = units[index]
        digest = spec.digest()
        position = primary_at.get(digest)
        if position is None:
            primary_at[digest] = len(deduped)
            deduped.append(index)
        else:
            followers.setdefault(position, []).append(index)
            _obs.emit("unit.coalesced", digest=digest, label=spec.label)
            if _obs.enabled:
                _obs.metrics.counter("units.coalesced").inc()
    pending = deduped

    if pending:
        owned = executor is None
        if owned:
            executor = make_executor(jobs, policy=policy, injector=injector)
        batch = [units[index] for index in pending]
        stream = executor.run(batch)

        def settle_followers(position: int, outcome) -> None:
            for dup_index in followers.get(position, ()):
                results[dup_index] = outcome
                if progress is not None:
                    progress(f"{units[dup_index].label} (coalesced)")

        try:
            for position, outcome in stream:
                index = pending[position]
                spec = units[index]
                results[index] = outcome
                if isinstance(outcome, UnitFailure):
                    if manifest is not None:
                        manifest.record(
                            spec.digest(), spec.label, "failed",
                            attempts=outcome.attempts, kind=outcome.kind,
                            message=outcome.message)
                    if progress is not None:
                        progress(f"{spec.label} (failed: {outcome.kind})")
                    settle_followers(position, outcome)
                    if not keep_going:
                        raise UnitExecutionError(outcome)
                    continue
                if cache is not None:
                    try:
                        path = cache.put(spec, outcome)
                    except OSError as exc:
                        _log.warning(
                            "result-cache write failed for %s (%s); "
                            "continuing uncached", spec.label, exc)
                    else:
                        if injector is not None:
                            injector.corrupt_cache_entry(path, spec)
                if manifest is not None:
                    # A serial deadline overrun kept its (valid) result;
                    # the manifest carries the overrun alongside the ok
                    # so resumed sweeps neither re-run nor forget it.
                    overrun = getattr(outcome, "deadline_overrun", None)
                    if overrun is not None:
                        manifest.record(
                            spec.digest(), spec.label, "ok",
                            kind="timeout",
                            message=f"deadline overrun: kept result "
                                    f"after {overrun:.3f}s")
                    else:
                        manifest.record(spec.digest(), spec.label, "ok")
                if progress is not None:
                    progress(spec.label)
                settle_followers(position, outcome)
        finally:
            # Closing the stream tears the executor down (cancelling
            # futures and reaping workers) on fail-fast or interrupt.
            close = getattr(stream, "close", None)
            if close is not None:
                close()
            if owned:
                executor.close()

    failed = sum(1 for outcome in results
                 if isinstance(outcome, UnitFailure))
    _obs.emit("plan.finished", ok=len(units) - failed, failed=failed,
              cached=cache_hits)
    return results  # type: ignore[return-value]
