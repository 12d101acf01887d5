"""Executors: run workload specs in-process or on worker nodes.

An :class:`Executor` streams ``(position, outcome)`` pairs as units
complete.  :class:`SerialExecutor` runs every unit in the calling
process (the oracle); :class:`~repro.runtime.coordinator.MultiNodeExecutor`
fans units across worker *nodes* that claim them under leases.
:func:`~repro.runtime.backend.make_backend` picks between them.

Both share one set of failure semantics: a failing unit is retried at
once under a :class:`RetryPolicy` and, when its budget runs out,
surfaces as a :class:`~repro.runtime.faults.UnitFailure` *in the
result stream* instead of an exception that aborts the batch.
:func:`run_attempt` is the one attempt body: :func:`run_unit` loops it
in-process, and a node runs one attempt per lease claim.  Graphs are
memoized per process (:func:`load_graph`), so a node simulating six
apps on one dataset generates it once.
"""

from __future__ import annotations

import logging
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from ..graph.csr import CSRGraph
from ..harness import runner as _runner
from ..harness.runner import WorkloadResult
from ..obs import OBSERVER as _obs
from .cache import ResultCache
from .faults import FaultInjector, UnitExecutionError, UnitFailure
from .spec import ExecutionPlan, GraphRef, WorkloadSpec

__all__ = [
    "RetryPolicy",
    "Executor",
    "SerialExecutor",
    "execute_spec",
    "run_attempt",
    "run_unit",
    "load_graph",
    "run_plan",
]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts a failing unit gets and how long one may run.

    A retry starts at once: a unit is a deterministic simulation, and
    no shared service stands behind it for a backoff to wait out.
    ``timeout`` is a per-attempt wall-clock budget in seconds (None = no
    limit).  The lease executor enforces it preemptively by killing the
    worker node that holds the attempt; the serial executor, which
    cannot interrupt in-process work, detects it after the attempt
    finishes.
    """

    max_attempts: int = 3
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")


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


def run_attempt(
    spec: WorkloadSpec,
    attempt: int,
    policy: RetryPolicy | None = None,
    injector: FaultInjector | None = None,
    in_worker: bool = False,
    execute: Callable[[WorkloadSpec], WorkloadResult] | None = None,
) -> WorkloadResult:
    """Run attempt ``attempt`` of one unit; raises when the attempt fails.

    ``in_worker`` lets the injector kill this process for real (a worker
    node).  An overrun of ``policy.timeout`` detected afterwards keeps
    the result and is recorded as a ``unit.overrun`` event.
    """
    policy = policy or RetryPolicy()
    digest = spec.digest()
    _obs.emit("unit.started", digest=digest, label=spec.label,
              attempt=attempt)
    started = time.monotonic()
    if injector is not None:
        injector.before_execute(spec, attempt, in_worker=in_worker)
    result = (execute or execute_spec)(spec)
    elapsed = time.monotonic() - started
    if policy.timeout is not None and elapsed > policy.timeout:
        _obs.emit("unit.overrun", digest=digest, label=spec.label,
                  elapsed=elapsed, budget=policy.timeout, attempt=attempt)
    _obs.emit("unit.finished", digest=digest, label=spec.label,
              attempt=attempt, elapsed=elapsed)
    return result


def note_retry(spec: WorkloadSpec, attempt: int, cause: str) -> None:
    """Count a unit reopened for ``attempt`` after a ``cause`` failure."""
    _obs.emit("unit.retried", digest=spec.digest(), label=spec.label,
              attempt=attempt, cause=cause)


def note_failure(failure: UnitFailure) -> None:
    """Count a unit's terminal failure (and its quarantine, if any)."""
    _obs.emit("unit.failed", digest=failure.digest, label=failure.label,
              attempts=failure.attempts, cause=failure.kind,
              message=failure.message)
    if failure.quarantined:
        _obs.emit("unit.quarantined", digest=failure.digest,
                  label=failure.label, attempts=failure.attempts)


def run_unit(
    spec: WorkloadSpec,
    policy: RetryPolicy | None = None,
    injector: FaultInjector | None = None,
    execute: Callable[[WorkloadSpec], WorkloadResult] | None = None,
) -> WorkloadResult | UnitFailure:
    """Run one unit in-process with retries; never raises for it.

    Returns the result, or a :class:`UnitFailure` once the policy's
    attempts are exhausted.  In-process execution cannot be preempted,
    so an overrun is only detectable after the attempt, when a valid
    result of a deterministic simulation is already in hand — and kept.
    Worker nodes enforce the timeout preemptively instead.
    """
    policy = policy or RetryPolicy()
    started = time.monotonic()
    failure: UnitFailure | None = None
    for attempt in range(1, policy.max_attempts + 1):
        if failure is not None:
            note_retry(spec, attempt, failure.kind)
        try:
            return run_attempt(spec, attempt, policy=policy,
                               injector=injector, execute=execute)
        except Exception as exc:
            failure = UnitFailure.from_exception(
                spec, exc, attempts=attempt,
                elapsed=time.monotonic() - started)
    note_failure(failure)
    return failure


class Executor:
    """Strategy interface: stream ``(position, outcome)`` pairs.

    ``run`` yields one pair per spec, in any completion order;
    ``position`` indexes into the ``specs`` sequence it was handed and
    ``outcome`` is a :class:`WorkloadResult` or, for a unit that
    exhausted its retries, a :class:`UnitFailure`.

    An executor may hold resources across runs (the worker nodes of
    the lease executor): ``start`` acquires them up front, ``close``
    releases them, and a ``with`` block does both.  Both are no-ops for
    executors that hold nothing between runs.
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
        self.start()
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


def run_plan(
    plan: ExecutionPlan | Sequence[WorkloadSpec],
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    executor: Executor | None = None,
    progress: Callable[[str], None] | None = None,
    policy: RetryPolicy | None = None,
    injector: FaultInjector | None = None,
    keep_going: bool = True,
) -> list[WorkloadResult | UnitFailure]:
    """Execute a plan; return outcomes in plan order.

    Cached units are restored without simulation; the rest run on
    ``executor`` (built from ``jobs``/``policy``/``injector`` when not
    given) and are written back to ``cache``.  ``progress`` receives one
    label per completed unit, tagged ``(cached)`` for cache hits and
    ``(failed: <kind>)`` for failures.

    Failure semantics: each unit is retried at once per ``policy``
    (default: 3 attempts).  Under ``keep_going`` (the default)
    a unit that exhausts its budget occupies its plan slot as a
    :class:`UnitFailure` and the rest of the plan still runs; with
    ``keep_going=False`` the first terminal failure raises
    :class:`UnitExecutionError` and outstanding work is cancelled.  A
    failed ``cache.put`` (read-only directory, disk full) logs a warning
    and continues — losing memoization, never results.

    Resuming an interrupted plan is running it again against the same
    cache: every unit that completed is restored (and reported) before
    the first cold unit starts.
    """
    units = list(plan)
    results: list[WorkloadResult | UnitFailure | None] = [None] * len(units)
    _obs.emit("plan.started", units=len(units), jobs=jobs)

    pending: list[int] = []
    for index, spec in enumerate(units):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            results[index] = hit
            _obs.emit("unit.cached", digest=spec.digest(),
                      label=spec.label)
            if progress is not None:
                progress(f"{spec.label} (cached)")
        else:
            pending.append(index)
    cache_hits = len(units) - len(pending)

    # Coalesce duplicate digests within the cold batch: the first
    # occurrence simulates, later occurrences share its outcome object.
    # A sweep grid can legitimately contain the same spec twice;
    # simulating it twice wastes a slot and races both writers at the
    # same cache path.
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
    pending = deduped

    if pending:
        owned = executor is None
        if owned:
            from . import backend

            executor = backend.make_backend("auto", jobs=jobs, policy=policy,
                                            injector=injector)
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
                if progress is not None:
                    progress(spec.label)
                settle_followers(position, outcome)
        finally:
            # Closing the stream withdraws unfinished units (killing the
            # nodes that hold them) on fail-fast or interrupt.
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
