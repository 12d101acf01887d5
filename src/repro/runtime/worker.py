"""Pull-based worker nodes for the lease executor.

A :class:`NodeWorker` is one node's whole behaviour: claim a unit from
the :class:`~repro.runtime.workqueue.WorkQueue` (atomic lease), renew
the lease's heartbeat on a background thread while simulating, publish
the result to the queue's shared result cache, and mark the unit done
with an exclusive completion marker (which records the node, so a
named queue keeps who completed each unit).

A node runs **one attempt per claim**
(:func:`~repro.runtime.executor.run_attempt`).  The attempt counter
lives in the queue, so it counts attempts across every node that held
the unit: a failed attempt with budget left reopens the unit with that
attempt charged (the next claimer retries it at once), and the last
attempt completes it as failed.

The same code runs three ways: spawned by the coordinator
(:func:`node_main`, idle between runs until stopped), launched via
``repro worker QUEUE_DIR`` on any machine sharing the queue's
filesystem (:func:`worker_main`, exits when the queue drains), or
stepped inline (``NodeWorker.step``).
"""

from __future__ import annotations

import dataclasses
import os
import select
import signal
import threading
import time

from ..obs import OBSERVER as _obs
from . import executor as _executor
from .executor import RetryPolicy
from .faults import FaultInjector, UnitFailure
from .spec import WorkloadSpec
from .workqueue import DEFAULT_LEASE_TTL, WorkQueue

__all__ = ["NodeWorker", "worker_main", "node_main", "worker_config"]

#: How long an idle worker sleeps between claim scans.
DEFAULT_POLL = 0.05


class _Heartbeat(threading.Thread):
    """Renew one lease at TTL/4 until stopped (daemon: dies with the node)."""

    def __init__(self, queue: WorkQueue, digest: str, node: str) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{digest[:8]}")
        self._queue = queue
        self._digest = digest
        self._node = node
        self._stopped = threading.Event()

    def run(self) -> None:
        interval = self._queue.lease_ttl / 4.0
        while not self._stopped.wait(interval):
            if not self._queue.renew(self._digest, self._node):
                # Lease lost (stolen or completed elsewhere): stop
                # renewing, but let the unit finish — the completion
                # marker arbitrates who counts.
                return

    def stop(self) -> None:
        self._stopped.set()


class NodeWorker:
    """One node's claim-execute-publish loop over a work queue.

    ``in_worker`` lets an injected crash kill this process for real.
    """

    def __init__(self, queue: WorkQueue, node: str,
                 policy: RetryPolicy | None = None,
                 injector: FaultInjector | None = None,
                 poll: float = DEFAULT_POLL,
                 in_worker: bool = False) -> None:
        self.queue = queue
        self.node = node
        self.policy = policy or RetryPolicy()
        self.injector = injector
        self.poll = poll
        self.in_worker = in_worker
        self.cache = queue.result_cache()
        self.processed = 0

    def step(self) -> str:
        """Claim and process one unit.

        Returns ``'ran'`` (a unit was processed), ``'idle'`` (nothing
        claimable yet — others hold leases), or ``'drained'`` (every
        unit is done).
        """
        claim = self.queue.claim(self.node, injector=self.injector)
        if claim is None:
            return "drained" if self.queue.drained() else "idle"
        spec, attempt = claim
        self._process(spec, attempt)
        self.processed += 1
        return "ran"

    def _process(self, spec: WorkloadSpec, attempt: int) -> None:
        digest = spec.digest()
        injector = self.injector
        heartbeat: _Heartbeat | None = None
        stall = (injector.heartbeat_stall(spec, attempt)
                 if injector is not None else 0.0)
        if stall > 0:
            # Injected heartbeat stall: no renewals this unit, and the
            # stall outlives the TTL, so the coordinator will expire the
            # lease and another node will steal the unit while this one
            # is still (slowly) working on it.
            time.sleep(stall)
        else:
            heartbeat = _Heartbeat(self.queue, digest, self.node)
            heartbeat.start()
        try:
            # Another node may already have published this digest (a
            # resumed queue, or the first half of a duplicate claim):
            # results are content-addressed, so adopt instead of
            # re-simulating.  A check, not a lookup: it counts no hit
            # or miss.
            if self.cache.load(spec) is not None:
                _obs.emit("unit.cached", digest=digest, label=spec.label)
                self.queue.complete(digest, self.node, "ok", attempt,
                                    label=spec.label)
                return
            if injector is not None:
                injector.maybe_kill_node(spec, attempt)  # SIGKILL, maybe
            started = time.monotonic()
            try:
                result = _executor.run_attempt(
                    spec, attempt, policy=self.policy, injector=injector,
                    in_worker=self.in_worker)
            except Exception as exc:
                self._fail(spec, attempt, UnitFailure.from_exception(
                    spec, exc, attempts=attempt,
                    elapsed=time.monotonic() - started))
                return
            path = self.cache.put(spec, result)
            if injector is not None:
                injector.tear_cache_entry(path, spec, attempt)
                injector.corrupt_cache_entry(path, spec)
            self.queue.complete(digest, self.node, "ok", attempt,
                                label=spec.label)
        finally:
            if heartbeat is not None:
                heartbeat.stop()

    def _fail(self, spec: WorkloadSpec, attempt: int,
              failure: UnitFailure) -> None:
        """Reopen the unit for another attempt, or settle it as failed."""
        digest = spec.digest()
        if attempt < self.policy.max_attempts:
            _executor.note_retry(spec, attempt + 1, failure.kind)
            self.queue.requeue(digest, charge_attempt=attempt,
                               node=self.node)
            return
        _executor.note_failure(failure)
        self.queue.complete(digest, self.node, "failed", attempt,
                            label=spec.label, failure=failure.to_dict())

    def run(self) -> int:
        """Pull until the queue drains; returns the units processed."""
        while (status := self.step()) != "drained":
            if status == "idle":
                time.sleep(self.poll)
        return self.processed


def worker_config(queue_dir: str, node: str,
                  lease_ttl: float = DEFAULT_LEASE_TTL,
                  policy: RetryPolicy | None = None,
                  injector: FaultInjector | None = None,
                  poll: float = DEFAULT_POLL,
                  events: bool = False) -> dict:
    """The plain-data config :func:`worker_main`/:func:`node_main` take."""
    return {
        "queue": str(queue_dir),
        "node": node,
        "lease_ttl": lease_ttl,
        "policy": dataclasses.asdict(policy) if policy is not None else None,
        "injector": injector.to_dict() if injector is not None else None,
        "poll": poll,
        "events": events,
    }


def _worker(config: dict, in_worker: bool) -> NodeWorker:
    """Build a config's node; with ``events``, journal its event stream
    to ``events/<node>.jsonl`` in the queue (it survives the node)."""
    queue = WorkQueue(config["queue"],
                      lease_ttl=config.get("lease_ttl", DEFAULT_LEASE_TTL))
    node = config["node"]
    if config.get("events"):
        from .. import obs
        obs.enable(events=str(queue.node_event_log(node)))
    policy = (RetryPolicy(**config["policy"])
              if config.get("policy") else None)
    injector = (FaultInjector.from_dict(config["injector"])
                if config.get("injector") else None)
    return NodeWorker(queue, node, policy=policy, injector=injector,
                      poll=config.get("poll", DEFAULT_POLL),
                      in_worker=in_worker)


def worker_main(config: dict) -> int:
    """``repro worker``: run one node until the queue drains; returns
    the units it processed."""
    return _worker(config, in_worker=False).run()


def drain(fd: int) -> None:
    """Empty a non-blocking wake-up pipe."""
    try:
        while os.read(fd, 4096):
            pass
    except BlockingIOError:
        pass


def node_main(config: dict, parent: int, notify: int,
              wake: tuple[int, int]) -> None:
    """A coordinator-spawned node: claim units until told to stop.

    Between units the node sleeps on its ``wake`` pipe, which the
    coordinator writes when there is work, for at most ``poll`` seconds;
    it writes a byte to ``notify`` after every unit it settles or
    reopens, which the coordinator sleeps on.  SIGTERM stops the node between units (the signal
    itself writes to the wake pipe, ending the wait); a node whose
    coordinator ``parent`` is gone stops too.  Signal wiring inherited
    through ``fork`` (a serve daemon's asyncio handlers and wake-up fd)
    is replaced first, so signals reach this node and not the daemon.
    """
    stopping = []
    signal.set_wakeup_fd(wake[1])
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    worker = _worker(config, in_worker=True)
    while not stopping and os.getppid() == parent:
        if worker.step() == "ran":
            try:
                os.write(notify, b"!")
            except OSError:  # full (nobody is collecting) or closed
                pass
            continue
        select.select([wake[0]], [], [], worker.poll)
        drain(wake[0])
