"""Typed event records for the observability layer.

An :class:`Event` is one timestamped fact about the run — a unit
started, a worker node died, a cache entry healed — with a ``kind`` drawn
from the closed taxonomy :data:`EVENT_KINDS` and a flat JSON-safe
payload.  The taxonomy is validated at construction time for the same
reason :meth:`StallBreakdown.add` validates its category: a typo'd kind
must fail loudly at the emit site, not silently produce an event no
consumer ever looks for.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

__all__ = ["Event", "EVENT_KINDS"]

#: The closed event taxonomy.  Consumers (sinks, the Chrome-trace
#: converter, tests) may rely on every event carrying one of these kinds.
EVENT_KINDS = (
    # Plan / sweep lifecycle.
    "plan.started",       # units, jobs
    "plan.finished",      # ok, failed, cached
    "sweep.phase",        # name, boundary ('begin' | 'end')
    # Per-unit lifecycle.
    "unit.started",       # digest, label, attempt
    "unit.finished",      # digest, label, attempt, elapsed
    "unit.retried",       # digest, label, attempt (the upcoming one), cause
    "unit.failed",        # digest, label, attempts, cause, message
    "unit.overrun",       # digest, label, elapsed, budget, attempt
    "unit.cached",        # digest, label
    "unit.coalesced",     # digest, label (duplicate digest within one plan)
    "unit.quarantined",   # digest, label, attempts
    # Worker nodes: membership.
    "node.join",          # node, pid, restarts (0 on first join)
    "node.leave",         # node, reason ('crash' | 'quarantined'
                          #   | 'deadline' | 'stopped'), pid
    # Worker nodes: lease protocol over the work queue.
    "lease.claim",        # digest, label, node, attempt
    "lease.renew",        # digest, node
    "lease.expire",       # digest, label (None if unreadable), node
                          #   (late owner), reason
                          #   ('ttl' | 'node-death' | 'corrupt')
    "lease.steal",        # digest, label, node (new owner), from_node,
                          #   attempt
    "lease.release",      # digest, node
    "unit.duplicate",     # digest, node (the loser of a completion race)
    # Work queue lifecycle.
    "queue.seeded",       # units, skipped (already done on re-seed)
    "queue.drained",      # units
    # Result cache.
    "cache.hit",          # digest, label
    "cache.miss",         # digest, label
    "cache.store",        # digest, label
    "cache.corrupt",      # digest, label (entry unlinked / self-healed)
    # Prediction-guided sweep pruning (repro.model.pruning).
    "sweep.pruned",       # graph, app, k, explore, kept, dropped
    "model.retrain",      # examples, train, holdout, accuracy, round
    # Simulation.
    "workload.simulated",  # app, graph, ops, rounds, configs
    # Serve daemon (repro.serve): request lifecycle and admission.
    "serve.started",      # endpoints (list of listening addresses)
    "serve.stopped",      # requests, uptime
    "serve.request",      # digest, label, client
    "serve.hit",          # digest, label (answered from the result cache)
    "serve.miss",         # digest, label (needs simulation)
    "serve.coalesced",    # digest, label (joined an in-flight request)
    "serve.admitted",     # digest, label, client, inflight
    "serve.rejected",     # digest, label, client,
                          #   reason ('capacity' | 'rate'), retry_after
    "serve.batch",        # units, queue_depth (one dispatch to the nodes)
)

_KIND_SET = frozenset(EVENT_KINDS)


@dataclass(frozen=True)
class Event:
    """One timestamped observation: ``kind`` + flat JSON-safe ``data``.

    ``ts`` is wall-clock seconds (``time.time()``) so logs from
    different processes and machines line up; sinks and the Chrome-trace
    converter rebase to the log's first event for display.
    """

    kind: str
    ts: float = field(default_factory=time.time)
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KIND_SET:
            raise ValueError(
                f"unknown event kind {self.kind!r}; "
                f"choose from EVENT_KINDS")
        if "kind" in self.data or "ts" in self.data:
            # A payload field named 'kind'/'ts' would silently shadow
            # the envelope in to_dict — the same typo class the stall
            # categories fix guards against.
            raise ValueError("event payload may not shadow 'kind'/'ts'")

    def to_dict(self) -> dict:
        """JSON-safe mapping; payload keys are inlined next to kind/ts."""
        record = {"kind": self.kind, "ts": self.ts}
        record.update(self.data)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "Event":
        """Inverse of :meth:`to_dict` (e.g. one parsed JSONL line)."""
        data = {key: value for key, value in record.items()
                if key not in ("kind", "ts")}
        return cls(kind=record["kind"], ts=float(record["ts"]), data=data)

    def to_json(self) -> str:
        """One JSONL line."""
        return json.dumps(self.to_dict(), sort_keys=False)
