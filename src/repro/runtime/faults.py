"""Failure records and deterministic fault injection for the runtime.

Two halves:

* :class:`UnitFailure` — the structured record carried *alongside*
  results when a unit exhausts its retry budget (spec digest, attempt
  count, exception class, traceback, wall time), instead of an exception
  torn out of ``as_completed`` that aborts the whole sweep.
  :class:`UnitExecutionError` wraps one for ``fail_fast`` callers.

* :class:`FaultInjector` — a seeded, spec-digest-keyed injector that can
  force worker crashes, hung workers, transient exceptions, and corrupt
  cache entries.  It is stateless and picklable: every decision is a
  pure function of (seed, spec digest, attempt, rule), so the same
  faults fire on both sides of a process boundary and on every re-run,
  letting tests exercise each recovery path reproducibly.

  Beyond the process-level kinds, the injector speaks the *node-level*
  failure vocabulary of the lease executor: ``node-kill`` SIGKILLs the
  worker process mid-unit (a real ``SIGKILL``, not an exit),
  ``heartbeat-stall`` freezes a worker's lease renewal so its lease
  expires under it, ``torn-cache-write`` tears the result file a worker
  just stored (a non-atomic write caught mid-flight), and
  ``duplicate-claim`` makes a worker claim over a live lease (the
  lease-race double-execution case).  Every hook keys on the unit's one
  attempt counter, carried by the work queue, so chaos runs replay
  identically.
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import signal
import time
import traceback as _traceback
from dataclasses import asdict, dataclass
from pathlib import Path

from ..sim.stalls import read_cycles, read_fields
from .spec import WorkloadSpec

__all__ = [
    "InjectedFaultError",
    "InjectedTransientError",
    "InjectedCrashError",
    "UnitTimeoutError",
    "UnitFailure",
    "UnitExecutionError",
    "FaultRule",
    "FaultInjector",
    "failure_kind",
]


def stable_fraction(key: str) -> float:
    """Map ``key`` onto [0, 1) deterministically (SHA-256, no RNG state)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


class InjectedFaultError(RuntimeError):
    """Base class for exceptions raised by the fault injector."""


class InjectedTransientError(InjectedFaultError):
    """A retryable injected exception (simulates flaky infrastructure)."""


class InjectedCrashError(InjectedFaultError):
    """An injected hard crash, raised where no real process can be killed."""


class UnitTimeoutError(RuntimeError):
    """A unit exceeded its per-unit wall-clock budget."""


def failure_kind(exception: BaseException) -> str:
    """Classify an exception into a :class:`UnitFailure` kind."""
    if isinstance(exception, InjectedCrashError):
        return "crash"
    if isinstance(exception, (UnitTimeoutError, TimeoutError)):
        return "timeout"
    return "error"


@dataclass
class UnitFailure:
    """One unit's terminal failure after its retry budget ran out.

    Flows through ``Executor.run`` / ``run_plan`` in place of a
    :class:`~repro.harness.runner.WorkloadResult`; ``ok`` is False so
    mixed result lists partition uniformly.  ``quarantined`` marks specs
    that kept killing worker processes and were withdrawn rather than
    handed to yet another node.
    """

    digest: str
    label: str
    kind: str  # one of KINDS
    attempts: int
    exception: str
    message: str
    traceback: str = ""
    elapsed: float = 0.0
    quarantined: bool = False

    ok = False  # mirrors WorkloadResult.ok
    #: ``rejected``: a served unit admission control never let in.
    KINDS = ("crash", "timeout", "error", "rejected")

    @classmethod
    def from_exception(
        cls,
        spec: WorkloadSpec,
        exception: BaseException,
        attempts: int,
        elapsed: float,
        quarantined: bool | None = None,
    ) -> "UnitFailure":
        kind = failure_kind(exception)
        if quarantined is None:
            quarantined = kind == "crash"
        trace = "".join(_traceback.format_exception(
            type(exception), exception, exception.__traceback__))
        return cls(
            digest=spec.digest(),
            label=spec.label,
            kind=kind,
            attempts=attempts,
            exception=type(exception).__name__,
            message=str(exception),
            traceback=trace,
            elapsed=elapsed,
            quarantined=quarantined,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "UnitFailure":
        """Inverse of :meth:`to_dict`; malformed input raises ``ValueError``
        naming the field (see :func:`~repro.sim.stalls.read_fields`)."""
        data = read_fields(
            "UnitFailure", data,
            {"digest": str, "label": str, "kind": str, "attempts": int,
             "exception": str, "message": str, "traceback": str,
             "elapsed": None, "quarantined": bool},
            required=("digest", "label", "kind", "attempts", "exception",
                      "message"))
        if data["kind"] not in cls.KINDS:
            raise ValueError(f"UnitFailure field 'kind' must be one of "
                             f"{cls.KINDS}, not {data['kind']!r}")
        attempts = data["attempts"]
        if isinstance(attempts, bool) or attempts < 0:
            raise ValueError(f"UnitFailure field 'attempts' must be an int "
                             f">= 0, not {attempts!r}")
        if "elapsed" in data:
            data["elapsed"] = read_cycles("UnitFailure", "elapsed",
                                          data["elapsed"])
        return cls(**data)


class UnitExecutionError(RuntimeError):
    """Raised under ``fail_fast`` when a unit fails after all retries."""

    def __init__(self, failure: UnitFailure) -> None:
        super().__init__(
            f"{failure.label} failed after {failure.attempts} attempt(s): "
            f"[{failure.kind}] {failure.exception}: {failure.message}"
        )
        self.failure = failure


#: Process-level kinds fire inside ``before_execute``; node-level kinds
#: fire in the multi-node worker's dedicated hooks.
_EXEC_KINDS = ("crash", "timeout", "transient")
_NODE_KINDS = ("node-kill", "heartbeat-stall", "torn-cache-write",
               "duplicate-claim")
_FAULT_KINDS = _EXEC_KINDS + ("corrupt-cache",) + _NODE_KINDS


@dataclass(frozen=True)
class FaultRule:
    """One deterministic injection: which units, which fault, how often.

    ``match`` is an ``fnmatch`` pattern over the unit label (``RAJ/PR``,
    ``*/CC``) or a spec-digest hex prefix.  The fault fires on attempts
    1..``attempts`` (use a large value for "always") whenever the seeded
    hash of (seed, digest, attempt, kind) lands below ``probability``.
    ``hang`` is how long an injected timeout sleeps — longer than the
    retry policy's ``timeout`` so the executor, not the fault, decides
    when to give up.
    """

    kind: str
    match: str = "*"
    attempts: int = 1
    probability: float = 1.0
    hang: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {_FAULT_KINDS}"
            )
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if not 0 <= self.probability <= 1:
            raise ValueError("probability must be within [0, 1]")


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic, spec-digest-keyed fault injection."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def _fires(self, rule: FaultRule, spec: WorkloadSpec,
               attempt: int) -> bool:
        if attempt > rule.attempts:
            return False
        digest = spec.digest()
        if not (fnmatch.fnmatchcase(spec.label, rule.match)
                or digest.startswith(rule.match)):
            return False
        if rule.probability >= 1.0:
            return True
        draw = stable_fraction(
            f"{self.seed}:{digest}:{attempt}:{rule.kind}")
        return draw < rule.probability

    def _rule(self, kinds: tuple[str, ...], spec: WorkloadSpec,
              attempt: int) -> FaultRule | None:
        """The first rule of one of ``kinds`` firing for (spec, attempt)."""
        return next((rule for rule in self.rules if rule.kind in kinds
                     and self._fires(rule, spec, attempt)), None)

    def select(self, spec: WorkloadSpec,
               attempt: int) -> FaultRule | None:
        """The first execution fault (crash/timeout/transient) that
        fires; cache and node-level rules have their own hooks."""
        return self._rule(_EXEC_KINDS, spec, attempt)

    def before_execute(self, spec: WorkloadSpec, attempt: int,
                       in_worker: bool) -> None:
        """Apply any crash/timeout/transient fault for this attempt.

        Inside a worker node an injected crash kills the real process
        (the coordinator sees the node die holding the unit's lease);
        in-process it degrades to :class:`InjectedCrashError` so the
        calling process survives.
        """
        rule = self.select(spec, attempt)
        if rule is None:
            return
        if rule.kind == "crash":
            if in_worker:
                os._exit(13)
            raise InjectedCrashError(
                f"injected crash for {spec.label} (attempt {attempt})")
        if rule.kind == "timeout":
            time.sleep(rule.hang)
            raise UnitTimeoutError(
                f"injected hang for {spec.label} outlived its "
                f"{rule.hang:g}s sleep (attempt {attempt})")
        raise InjectedTransientError(
            f"injected transient fault for {spec.label} "
            f"(attempt {attempt})")

    def maybe_kill_node(self, spec: WorkloadSpec, attempt: int) -> None:
        """SIGKILL this worker process mid-unit if a node-kill rule fires.

        A real ``SIGKILL`` — not ``os._exit`` — so the node dies the way
        an OOM-killed or fenced machine does: no atexit hooks, no
        flushes, lease left dangling, event log possibly torn mid-line.
        ``attempt`` is the unit's attempt from the work queue, so a
        single-shot rule kills the first claim and lets the steal
        succeed.
        """
        if self._rule(("node-kill",), spec, attempt) is not None:
            os.kill(os.getpid(), signal.SIGKILL)

    def heartbeat_stall(self, spec: WorkloadSpec, attempt: int) -> float:
        """Seconds this unit's heartbeat should freeze (0.0 = healthy).

        The worker suspends lease renewal for that long before
        executing, guaranteeing the coordinator sees an expired lease
        and steals the unit while the stalled node is still alive — the
        double-execution path that exclusive completion markers must
        absorb.
        """
        rule = self._rule(("heartbeat-stall",), spec, attempt)
        return rule.hang if rule is not None else 0.0

    def duplicate_claim(self, spec: WorkloadSpec, attempt: int) -> bool:
        """Whether this worker should claim over a live foreign lease."""
        return self._rule(("duplicate-claim",), spec, attempt) is not None

    def tear_cache_entry(self, path: str | Path, spec: WorkloadSpec,
                         attempt: int = 1) -> bool:
        """Truncate the just-written result entry mid-file, if a rule fires.

        Models a torn (non-atomic) write surviving on disk: unlike
        ``corrupt-cache`` garbage this is a *prefix* of a valid entry,
        the shape a crash mid-``write`` leaves when a filesystem lacks
        the rename barrier.  Readers must treat it as a miss and
        self-heal.
        """
        if self._rule(("torn-cache-write",), spec, attempt) is None:
            return False
        path = Path(path)
        content = path.read_text()
        path.write_text(content[: max(1, len(content) // 2)])
        return True

    def corrupt_cache_entry(self, path: str | Path,
                            spec: WorkloadSpec) -> bool:
        """Garble the cache entry just written for ``spec``, if a rule says so."""
        if self._rule(("corrupt-cache",), spec, 1) is None:
            return False
        Path(path).write_text("{corrupted-by-fault-injector")
        return True

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "rules": [asdict(rule) for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultInjector":
        return cls(
            rules=tuple(FaultRule(**rule) for rule in data["rules"]),
            seed=data.get("seed", 0),
        )
