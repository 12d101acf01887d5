"""The lease executor: a coordinator supervising worker nodes.

:class:`MultiNodeExecutor` is the one parallel executor.  Units flow
through a crash-safe :class:`~repro.runtime.workqueue.WorkQueue` to
worker *processes* that each behave like an independent node: atomic
lease claims, heartbeat renewal, results published to the queue's
shared :class:`~repro.runtime.cache.ResultCache`.  The ``process``
backend is this class with ``jobs`` local nodes over a private
temporary queue, or over a named ``queue_dir`` that external ``repro
worker`` nodes can join and an interrupted run can resume; there,
each unit's done marker records the node that completed it.

The coordinator supervises; it does not execute.  It forks the nodes
(which idle between runs), restarts nodes that die and reclaims their
leases at once, SIGKILLs a node whose attempt outlives its deadline,
expires leases whose heartbeat went stale, charges every lost attempt
to the unit's one attempt counter in the queue, fails a unit whose
budget is spent, streams outcomes back in completion order, and folds
the nodes' event logs into its own observer, where node events count
exactly like its own.  Each node runs one unit
at a time, so the unit a dead node held *is* the suspect: blame needs
no probation and a deadline kill hits no innocent unit.  DESIGN.md §8.1
and §12 give the full failure semantics.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import select
import shutil
import tempfile
import time
from pathlib import Path
from typing import Iterator, Sequence

from ..harness.runner import WorkloadResult
from ..obs import OBSERVER as _obs
from ..obs import Event
from .executor import Executor, RetryPolicy, note_failure, note_retry
from .faults import FaultInjector, UnitFailure
from .spec import WorkloadSpec
from .worker import DEFAULT_POLL, NodeWorker, drain, node_main, worker_config
from .workqueue import DEFAULT_LEASE_TTL, WorkQueue

__all__ = ["MultiNodeExecutor", "NODE_RESTARTS"]

#: How many times one node slot is restarted after a crash, per run,
#: before the slot is quarantined (the retry budget's "give up
#: eventually" at node level).
NODE_RESTARTS = 2


def _pipe() -> tuple[int, int]:
    """A non-blocking pipe for wake-ups (bytes carry no meaning)."""
    fds = os.pipe()
    for fd in fds:
        os.set_blocking(fd, False)
    return fds


class _NodeSlot:
    """One supervised node slot: its process, wake pipe, restart budget."""

    __slots__ = ("base", "name", "process", "wake", "incarnation",
                 "restarts")

    def __init__(self, base: str) -> None:
        self.base = base
        self.name = base
        self.process: multiprocessing.process.BaseProcess | None = None
        self.wake = _pipe()  # written here, read by every incarnation
        self.incarnation = -1
        self.restarts = 0


class MultiNodeExecutor(Executor):
    """Run specs across supervised worker nodes over a shared work queue.

    ``queue_dir`` None means a private temporary queue, removed by
    :meth:`close`.  ``policy.max_attempts`` bounds the attempts per unit
    across every node that runs it; ``policy.timeout`` bounds each
    attempt's wall clock.  Nodes live from :meth:`start` (or entering a
    ``with`` block) to :meth:`close`; a run on an executor that was not
    started forks its own nodes and stops them when it ends.  One
    executor serves one thread at a time.
    """

    def __init__(self, nodes: int = 2,
                 policy: RetryPolicy | None = None,
                 injector: FaultInjector | None = None,
                 queue_dir: str | Path | None = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 poll: float = DEFAULT_POLL) -> None:
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        self.nodes = nodes
        self.policy = policy
        self.injector = injector
        self.queue_dir = Path(queue_dir) if queue_dir is not None else None
        self.lease_ttl = lease_ttl
        self.poll = poll
        self._queue: WorkQueue | None = None
        self._slots: list[_NodeSlot] = []
        self._offsets: dict[Path, int] = {}
        # Nodes write a byte here per unit they settle (see node_main).
        self._notify: tuple[int, int] | None = None

    @property
    def _private(self) -> bool:
        return self.queue_dir is None

    # -- fleet lifetime ---------------------------------------------------

    def start(self) -> None:
        """Fork the nodes now, on the calling thread.

        On a started executor this resets the restart budgets and
        replaces nodes that died since the last run.
        """
        for slot in self._slots:
            slot.restarts = 0
            if slot.process is not None and not slot.process.is_alive():
                slot.process.join()
                slot.process = None
            if slot.process is None:
                self._spawn(slot)
        if self._slots:
            return
        directory = (Path(tempfile.mkdtemp(prefix="repro-queue-"))
                     if self._private else self.queue_dir)
        self._queue = WorkQueue(directory, lease_ttl=self.lease_ttl)
        # Fold only what this executor's nodes journal from now on.
        self._offsets = {path: path.stat().st_size for path in
                         self._queue.events_dir.glob("*.jsonl")}
        self._notify = _pipe()
        self._slots = [_NodeSlot(f"node-{index}")
                       for index in range(self.nodes)]
        for slot in self._slots:
            self._spawn(slot)

    def close(self) -> None:
        """Stop every node and remove a private queue."""
        slots, self._slots = self._slots, []
        deadline = time.monotonic() + max(1.0, 20 * self.poll)
        for slot in slots:
            if slot.process is not None:
                slot.process.terminate()  # a node stops between units
        for slot in slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join()
            _obs.emit("node.leave", node=slot.name, reason="stopped",
                      pid=process.pid)
            slot.process = None
        queue, self._queue = self._queue, None
        if queue is not None and self._private:
            shutil.rmtree(queue.directory, ignore_errors=True)
        notify, self._notify = self._notify, None
        for pipe in [notify or (), *(slot.wake for slot in slots)]:
            for fd in pipe:
                os.close(fd)

    def _spawn(self, slot: _NodeSlot) -> None:
        """Start a new incarnation of ``slot``'s node.

        Incarnations get distinct names (``node-0``, ``node-0r1``, ...),
        so reclaiming a dead incarnation's leases never races the live
        one's.
        """
        slot.incarnation += 1
        if slot.incarnation:
            slot.name = f"{slot.base}r{slot.incarnation}"
        queue = self._queue
        # A node on a private queue hears of all its work through its
        # wake pipe; on a named one, other processes may add work.
        idle = self.lease_ttl / 4 if self._private else self.poll
        config = worker_config(
            str(queue.directory), slot.name, lease_ttl=queue.lease_ttl,
            policy=self.policy, injector=self.injector, poll=idle,
            events=_obs.enabled)
        process = multiprocessing.get_context().Process(
            target=node_main,
            args=(config, os.getpid(), self._notify[1], slot.wake),
            daemon=True, name=f"repro-{slot.name}")
        process.start()
        slot.process = process
        _obs.emit("node.join", node=slot.name, pid=process.pid,
                  restarts=slot.incarnation)

    def _kill(self, slot: _NodeSlot, reason: str) -> str:
        """SIGKILL ``slot``'s node now; returns the dead incarnation."""
        process, name = slot.process, slot.name
        process.kill()
        process.join()
        slot.process = None
        _obs.emit("node.leave", node=name, reason=reason, pid=process.pid)
        return name

    def _reap(self) -> list[str]:
        """Notice dead nodes; restart or quarantine their slots.

        Returns the node names whose death was just observed (their
        leases should be reclaimed without waiting out the TTL).
        """
        dead: list[str] = []
        for slot in self._slots:
            process = slot.process
            if process is None or process.is_alive():
                continue
            process.join()
            slot.process = None
            dead.append(slot.name)
            if slot.restarts < NODE_RESTARTS:
                _obs.emit("node.leave", node=slot.name, reason="crash",
                          pid=process.pid)
                slot.restarts += 1
                self._spawn(slot)
            else:
                _obs.emit("node.leave", node=slot.name,
                          reason="quarantined", pid=process.pid)
        return dead

    def _kill_overdue(self, policy: RetryPolicy) -> list[str]:
        """SIGKILL and replace nodes holding a lease past its deadline.

        The deadline is the claim time plus ``policy.timeout``.  Returns
        the killed incarnations, whose leases are then reclaimed like any
        dead node's.
        """
        if policy.timeout is None:
            return []
        slots = {slot.name: slot for slot in self._slots
                 if slot.process is not None}
        now = time.monotonic()
        killed = []
        for lease in self._queue.leases():
            slot = slots.get(lease["node"])
            if slot is None or lease.get("claimed_mono") is None:
                continue
            if now < lease["claimed_mono"] + policy.timeout:
                continue
            killed.append(self._kill(slot, "deadline"))
            self._spawn(slot)
        return killed

    # -- the drive loop ---------------------------------------------------

    def run(
        self, specs: Sequence[WorkloadSpec]
    ) -> Iterator[tuple[int, WorkloadResult | UnitFailure]]:
        owned = not self._slots
        self.start()
        queue = self._queue
        policy = self.policy or RetryPolicy()
        cache = queue.result_cache()

        # One digest can, in principle, fill several plan slots; every
        # slot gets the (single) outcome for that digest.
        spec_of: dict[str, WorkloadSpec] = {}
        pending: dict[str, list[int]] = {}
        for position, spec in enumerate(specs):
            digest = spec.digest()
            spec_of[digest] = spec
            pending.setdefault(digest, []).append(position)

        woken = False  # the first pass sweeps leases
        try:
            queue.seed(specs)
            self._wake()
            while pending:
                self._fold_events()
                progressed = False
                for digest in queue.done_digests().intersection(pending):
                    outcome = self._collect(queue, digest, spec_of[digest],
                                            cache)
                    if outcome is None:
                        continue
                    progressed = True
                    if self._private:
                        queue.forget(digest)
                    for position in pending.pop(digest):
                        yield position, outcome
                if not pending:
                    break

                overdue = self._kill_overdue(policy)
                dead = self._reap() + overdue
                # A wake-up by a node settling a unit leaves no lease to
                # expire; deaths and quiet timeouts may.
                expired = (queue.reclaim_expired(dead_nodes=dead)
                           if dead or not woken else [])
                for lease in expired:
                    self._settle_lost(
                        queue, lease, spec_of, policy,
                        "timeout" if lease["node"] in overdue else "crash")
                if expired:
                    self._wake()  # their units are claimable again

                if not any(slot.process is not None for slot in self._slots):
                    # Every node is quarantined with work still owed:
                    # finish inline so every slot gets filled.
                    self._drain_inline(queue, spec_of, policy)

                woken = progressed or self._wait(policy)

            _obs.emit("queue.drained", units=len(spec_of))
        finally:
            self._fold_events()
            if pending and self._private:
                self._withdraw(queue, pending)
            if owned:
                self.close()

    def _wait(self, policy: RetryPolicy) -> bool:
        """Sleep until a node settles a unit or dies, or supervision is due.

        Deadlines and other processes' nodes (on a named queue) are only
        seen by polling every ``poll``; otherwise the heartbeat sweep's
        TTL/4 bounds the wait.  ``select`` holds no interpreter lock, so
        a coordinator in the serve daemon does not slow its event loop.
        Returns whether a node woke it (rather than the timeout).
        """
        timeout = (self.poll if policy.timeout is not None
                   or not self._private else self.lease_ttl / 4)
        watched = [self._notify[0]] + [
            slot.process.sentinel for slot in self._slots
            if slot.process is not None]
        ready, _, _ = select.select(watched, [], [], timeout)
        drain(self._notify[0])
        return bool(ready)

    def _wake(self) -> None:
        """Tell every node there may be work to claim."""
        for slot in self._slots:
            try:
                os.write(slot.wake[1], b"!")
            except BlockingIOError:
                pass  # already full of wake-ups

    def _collect(self, queue: WorkQueue, digest: str, spec: WorkloadSpec,
                 cache) -> WorkloadResult | UnitFailure | None:
        """Turn ``digest``'s completion marker into an outcome, if any.

        An 'ok' marker whose cache entry is unreadable (a torn write) is
        not an outcome: the unit is reopened with the torn attempt
        charged, and another node redoes the work.  Results are read
        with :meth:`~repro.runtime.cache.ResultCache.load`: collecting
        a node's result is not a cache lookup, so it counts no hit.
        """
        record = queue.outcome(digest)
        if record is None:
            return None
        if record["status"] == "ok":
            result = cache.load(spec)
            if result is None:
                attempt = record["attempt"]
                queue.requeue(digest, charge_attempt=attempt)
                note_retry(spec, attempt + 1, "torn-result")
                self._wake()
                return None
            return result
        return UnitFailure.from_dict(record["failure"])

    def _settle_lost(self, queue: WorkQueue, lease: dict,
                     spec_of: dict[str, WorkloadSpec],
                     policy: RetryPolicy, kind: str) -> None:
        """Account for an attempt lost with its lease (death or deadline).

        The expiry already charged the attempt.  With budget left the
        next claimer retries the unit; once charges reach the budget
        the coordinator publishes the terminal failure itself, or a unit
        that kills every node it lands on would cycle forever.  Units of
        other runs (on a named queue) are left to their own runs.
        """
        digest = lease["digest"]
        spec = spec_of.get(digest)
        if spec is None or queue.outcome(digest) is not None:
            return
        attempt = lease["attempt"]
        if attempt < policy.max_attempts:
            note_retry(spec, attempt + 1, kind)
            return
        if kind == "timeout":
            exception = "UnitTimeoutError"
            message = (f"{spec.label} exceeded the {policy.timeout:g}s "
                       f"wall-clock limit (attempt {attempt}); node "
                       f"{lease['node']} was killed")
        else:
            exception = "NodeDeath"
            message = (f"node {lease['node']} lost the unit "
                       f"({lease['reason']}) on attempt {attempt}; "
                       f"retry budget exhausted")
        failure = UnitFailure(
            digest=digest, label=spec.label, kind=kind, attempts=attempt,
            exception=exception, message=message,
            quarantined=kind == "crash")
        if queue.complete(digest, "coordinator", "failed", attempt,
                          label=spec.label, failure=failure.to_dict()):
            note_failure(failure)

    def _drain_inline(self, queue: WorkQueue,
                      spec_of: dict[str, WorkloadSpec],
                      policy: RetryPolicy) -> None:
        """Last resort: run the remaining units in the coordinator.

        Node-kill rules are stripped from the injector (the fleet may
        have died to them), and stale leases of dead incarnations are
        reclaimed as they are met.
        """
        injector = self.injector
        if injector is not None:
            rules = tuple(rule for rule in injector.rules
                          if rule.kind != "node-kill")
            injector = FaultInjector(rules=rules, seed=injector.seed)
        worker = NodeWorker(queue, "coordinator", policy=policy,
                            injector=injector, poll=self.poll)
        while True:
            status = worker.step()
            if status == "drained":
                return
            if status == "idle":
                # Everything left is leased by dead nodes; expire by
                # observed death rather than waiting out TTLs.
                stale = [lease["node"] for lease in queue.leases()]
                if not stale:
                    return
                for lease in queue.reclaim_expired(dead_nodes=stale):
                    self._settle_lost(queue, lease, spec_of, policy,
                                      "crash")

    def _withdraw(self, queue: WorkQueue, pending: dict) -> None:
        """Take an interrupted run's unfinished units out of the queue.

        Unit records go first, so no node starts one; then the nodes
        holding one are killed (the next run replaces them).
        """
        for digest in pending:
            (queue.units_dir / f"{digest}.json").unlink(missing_ok=True)
        holders = {lease["node"] for lease in queue.leases()
                   if lease["digest"] in pending}
        for slot in self._slots:
            if slot.process is not None and slot.name in holders:
                self._kill(slot, "stopped")
        for digest in pending:
            queue.forget(digest)

    def _fold_events(self) -> None:
        """Forward new node event-log lines to this process's observer.

        Only whole lines are consumed; a torn line (a node killed
        mid-write) is skipped.
        """
        if not _obs.enabled or self._queue is None:
            return
        for path in sorted(self._queue.events_dir.glob("*.jsonl")):
            offset = self._offsets.get(path, 0)
            try:
                with path.open("rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                continue
            end = chunk.rfind(b"\n") + 1
            self._offsets[path] = offset + end
            for line in chunk[:end].splitlines():
                try:
                    event = Event.from_dict(json.loads(line))
                except (ValueError, TypeError, KeyError, AttributeError):
                    continue
                _obs.forward(event)
