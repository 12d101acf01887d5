"""Render a ``repro --events`` JSONL log as a Chrome trace timeline.

Usage::

    PYTHONPATH=src python -m repro sweep --iters 2 --events events.jsonl
    python tools/events_to_chrometrace.py events.jsonl -o trace.json

Load ``trace.json`` in ``chrome://tracing`` or https://ui.perfetto.dev.

Layout: one process ("repro run"), one timeline row per workload unit
(label order of first appearance) plus row 0 for plan/sweep-level
events.  ``unit.started`` .. ``unit.finished``/``unit.failed`` spans
become duration slices; retries, deadline overruns, quarantines, cache
traffic and lease traffic appear as instant markers on the owning row,
and worker-node joins and leaves on row 0.  Sweep phases (plan /
execute / aggregate) are slices on row 0.  Events are laid out in
timestamp order: a parallel run's log interleaves the coordinator's
events with the ones it folded in from its worker nodes.

The converter is tolerant by design: torn lines and unknown event kinds
are skipped (counted in the summary), and a span left open by a killed
run is closed at the log's last timestamp so the trace still loads.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PID = 1
META_TID = 0

# Kinds rendered as instant markers on the owning unit's row.
_UNIT_INSTANTS = (
    "unit.retried",
    "unit.overrun",
    "unit.cached",
    "unit.quarantined",
    "unit.duplicate",
    "cache.hit",
    "cache.miss",
    "cache.store",
    "cache.corrupt",
    "lease.claim",
    "lease.renew",
    "lease.expire",
    "lease.steal",
    "lease.release",
)

# Kinds rendered as instant markers on the global (row 0) timeline.
# (workload.simulated carries app/graph, not a unit label, so it lands
# on the global row too.)
_GLOBAL_INSTANTS = ("plan.started", "plan.finished", "workload.simulated",
                    "node.join", "node.leave", "queue.seeded",
                    "queue.drained")


def read_events(path: Path) -> tuple[list[dict], int]:
    """Parse the JSONL log; returns (events, skipped_line_count)."""
    events: list[dict] = []
    skipped = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            skipped += 1
            continue
        if not isinstance(record, dict) or "kind" not in record \
                or type(record.get("ts")) not in (int, float):
            skipped += 1
            continue
        events.append(record)
    return events, skipped


def convert(events: list[dict]) -> dict:
    """Build the Chrome ``traceEvents`` payload from parsed records."""
    if not events:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    t0 = min(event["ts"] for event in events)
    t_end = max(event["ts"] for event in events)

    def us(ts: float) -> float:
        return round((ts - t0) * 1e6, 3)

    tids: dict[str, int] = {}

    def tid_for(label: str) -> int:
        if label not in tids:
            tids[label] = len(tids) + 1  # row 0 is the global timeline
        return tids[label]

    events = sorted(events, key=lambda event: event["ts"])
    trace: list[dict] = []
    # (label -> (start ts, attempt)) of the currently open unit span.
    open_spans: dict[str, tuple[float, int]] = {}
    skipped_kinds: dict[str, int] = {}

    def close_span(label: str, end_ts: float, outcome: str,
                   args: dict) -> None:
        started, attempt = open_spans.pop(label)
        trace.append({
            "name": f"{label} (attempt {attempt})",
            "cat": "unit",
            "ph": "X",
            "pid": PID,
            "tid": tid_for(label),
            "ts": us(started),
            "dur": max(round((end_ts - started) * 1e6, 3), 1.0),
            "args": dict(args, outcome=outcome),
        })

    for event in events:
        kind = event["kind"]
        ts = event["ts"]
        label = event.get("label", "")
        if kind == "unit.started":
            # A started span that never finished (killed run, or a
            # retry resubmission) is closed as interrupted.
            if label in open_spans:
                close_span(label, ts, "interrupted", {})
            open_spans[label] = (ts, event.get("attempt", 1))
        elif kind == "unit.finished":
            if label in open_spans:
                close_span(label, ts, "ok",
                           {"elapsed_s": event.get("elapsed")})
        elif kind == "unit.failed":
            if label in open_spans:
                close_span(label, ts,
                           f"failed:{event.get('cause', 'error')}",
                           {"message": event.get("message", "")})
        elif kind == "sweep.phase":
            trace.append({
                "name": f"phase:{event.get('name', '?')}",
                "cat": "sweep",
                "ph": "B" if event.get("boundary") == "begin" else "E",
                "pid": PID,
                "tid": META_TID,
                "ts": us(ts),
            })
        elif kind in _UNIT_INSTANTS:
            args = {key: value for key, value in event.items()
                    if key not in ("kind", "ts")}
            trace.append({
                "name": kind,
                "cat": "unit",
                "ph": "i",
                "s": "t",
                "pid": PID,
                "tid": tid_for(label) if label else META_TID,
                "ts": us(ts),
                "args": args,
            })
        elif kind in _GLOBAL_INSTANTS:
            args = {key: value for key, value in event.items()
                    if key not in ("kind", "ts")}
            trace.append({
                "name": kind,
                "cat": "runtime",
                "ph": "i",
                "s": "p",
                "pid": PID,
                "tid": META_TID,
                "ts": us(ts),
                "args": args,
            })
        else:
            skipped_kinds[kind] = skipped_kinds.get(kind, 0) + 1

    # Close anything a killed run left open so the trace still renders.
    for label in list(open_spans):
        close_span(label, t_end, "unclosed", {})

    meta = [{
        "name": "process_name", "ph": "M", "pid": PID,
        "args": {"name": "repro run"},
    }, {
        "name": "thread_name", "ph": "M", "pid": PID, "tid": META_TID,
        "args": {"name": "plan/sweep"},
    }]
    meta.extend({
        "name": "thread_name", "ph": "M", "pid": PID, "tid": tid,
        "args": {"name": label},
    } for label, tid in tids.items())

    payload = {"traceEvents": meta + trace, "displayTimeUnit": "ms"}
    if skipped_kinds:
        payload["reproSkippedKinds"] = skipped_kinds
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("events", type=Path,
                        help="JSONL log written by --events")
    parser.add_argument("-o", "--output", type=Path, default=None,
                        help="trace file to write (default: "
                             "<events>.trace.json)")
    args = parser.parse_args(argv)

    events, torn = read_events(args.events)
    payload = convert(events)
    output = args.output or args.events.with_suffix(".trace.json")
    output.write_text(json.dumps(payload, indent=1) + "\n",
                      encoding="utf-8")

    slices = sum(1 for entry in payload["traceEvents"]
                 if entry.get("ph") == "X")
    instants = sum(1 for entry in payload["traceEvents"]
                   if entry.get("ph") == "i")
    print(f"wrote {output}: {len(events)} events -> {slices} slices, "
          f"{instants} markers"
          + (f", {torn} torn lines skipped" if torn else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
