"""Typed event records for the observability layer.

An :class:`Event` is one timestamped fact about the run — a unit
started, a worker node died, a cache entry healed — with a ``kind`` drawn
from the closed taxonomy :data:`EVENT_KINDS` and a flat JSON-safe
payload.  The taxonomy is validated at construction time for the same
reason :meth:`StallBreakdown.add` validates its category: a typo'd kind
must fail loudly at the emit site, not silently produce an event no
consumer ever looks for.  The taxonomy also names the counter each kind
bumps, so a metrics counter is defined once, as a count of events.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

__all__ = ["Event", "EVENT_KINDS"]

#: The closed event taxonomy, and the one definition of every event
#: counter: each kind maps to the counter one such event bumps — a name,
#: ``None``, or a dict from the event's ``reason`` to a name.  Consumers
#: (sinks, the Chrome-trace converter, tests) may rely on every event
#: carrying one of these kinds.  Payloads in the comments; ``unit.*``,
#: ``lease.*``, ``cache.*`` and per-request ``serve.*`` events also
#: carry the unit's ``digest`` and (but for renew/release/duplicate)
#: ``label``.
EVENT_KINDS: dict[str, str | dict[str, str] | None] = {
    # Plan / sweep lifecycle.
    "plan.started": None,  # units, jobs
    "plan.finished": None,  # ok, failed, cached
    "sweep.phase": None,  # name, boundary ('begin' | 'end')
    # Per-unit lifecycle.
    "unit.started": "units.started",  # attempt
    "unit.finished": "units.finished",  # attempt, elapsed
    "unit.retried": "units.retried",  # attempt (the upcoming one), cause
    "unit.failed": "units.failed",  # attempts, cause, message
    "unit.overrun": "units.overrun",  # elapsed, budget, attempt
    "unit.cached": "units.cached",
    "unit.coalesced": "units.coalesced",  # (duplicate digest in one plan)
    "unit.quarantined": "units.quarantined",  # attempts
    # Worker nodes: membership.
    "node.join": "nodes.joined",  # node, pid, restarts (0 on first join)
    "node.leave": {  # node, pid, reason (also 'deadline' | 'stopped')
        "crash": "nodes.crashed", "quarantined": "nodes.quarantined"},
    # Worker nodes: lease protocol over the work queue.
    "lease.claim": "lease.claims",  # node, attempt
    "lease.renew": None,  # node
    "lease.expire": "lease.expires",  # node (late owner), reason ('ttl' |
                                      #   'node-death' | 'corrupt': label
                                      #   and node are None)
    "lease.steal": "lease.steals",  # node (new owner), from_node, attempt
    "lease.release": None,  # node
    "unit.duplicate": "units.duplicate",  # node (lost a completion race)
    # Work queue lifecycle.
    "queue.seeded": None,  # units, skipped (already done on re-seed)
    "queue.drained": None,  # units
    # Result cache.
    "cache.hit": "cache.hits",
    "cache.miss": "cache.misses",
    "cache.store": "cache.stores",
    "cache.corrupt": "cache.corrupt",  # (entry unlinked / self-healed)
    # Prediction-guided sweep pruning (repro.model.pruning).
    "sweep.pruned": None,  # graph, app, k, explore, kept, dropped
    # Simulation.
    "workload.simulated": "sim.workloads",  # app, graph, ops, rounds,
                                            #   configs
    # Serve daemon (repro.serve): request lifecycle and admission.
    "serve.started": None,  # endpoints (list of listening addresses)
    "serve.stopped": None,  # requests, uptime
    "serve.request": None,  # client
    "serve.hit": "serve.hits",  # (answered from the result cache)
    "serve.miss": "serve.misses",  # (needs simulation)
    "serve.coalesced": "serve.coalesced",  # (joined an in-flight request)
    "serve.admitted": "serve.admitted",  # client, inflight
    "serve.rejected": "serve.rejected",  # client, reason ('capacity' |
                                         #   'rate'), retry_after
    "serve.batch": None,  # units (one request's cold plan, dispatched
                          #   to the nodes)
}


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
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; "
                f"choose from EVENT_KINDS")
        if "kind" in self.data or "ts" in self.data:
            # A payload field named 'kind'/'ts' would silently shadow
            # the envelope in to_dict — the same typo class the stall
            # categories fix guards against.
            raise ValueError("event payload may not shadow 'kind'/'ts'")

    def counter(self) -> str | None:
        """The metrics counter this event bumps (see :data:`EVENT_KINDS`)."""
        name = EVENT_KINDS[self.kind]
        if isinstance(name, dict):
            return name.get(self.data.get("reason"))
        return name

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
