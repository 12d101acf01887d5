"""Incremental run manifests: a JSON-lines journal of unit outcomes.

``run_plan`` appends one record per completed unit *as it completes*
(flushed immediately), so an interrupted or partially failed sweep
leaves a readable account of what happened.  On re-run the result cache
restores the successes; the manifest names the failures, so tooling —
and :meth:`ExecutionPlan.subset` — can rebuild exactly the units that
still need simulating.

Records are append-only: a digest may appear multiple times across
re-runs, and the *latest* record wins.  A torn final line (the process
died — or was SIGKILLed — mid-append) is **skipped and counted** on
read rather than poisoning the journal: ``entries()`` refreshes
``torn_lines`` with how many unusable lines the last read stepped
over, the same degrade-don't-raise contract as
:class:`~repro.obs.sinks.JsonlSink` on the write side.  The reader fails
closed: a line counts only if it is UTF-8 JSON for a dict with a string
``digest`` and a known ``status``; anything else is torn.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["RunManifest"]

#: Journal statuses: 'ok' (simulated), 'cached' (restored without
#: simulation), 'failed' (retry budget exhausted).
_STATUSES = ("ok", "cached", "failed")


class RunManifest:
    """Append-only journal of per-unit outcomes for one or more runs."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path).expanduser()
        #: Unparseable lines skipped by the most recent read (torn final
        #: line from a crash mid-append, or bit rot).  Refreshed by
        #: ``entries()``; 0 until something has been read.
        self.torn_lines = 0

    def record(
        self,
        digest: str,
        label: str,
        status: str,
        attempts: int = 1,
        kind: str | None = None,
        message: str | None = None,
    ) -> None:
        """Append one outcome (``status`` in 'ok' | 'cached' | 'failed')."""
        if status not in _STATUSES:
            raise ValueError(f"unknown manifest status {status!r}")
        entry: dict = {
            "digest": digest,
            "label": label,
            "status": status,
            "attempts": attempts,
        }
        if kind is not None:
            entry["kind"] = kind
        if message is not None:
            entry["message"] = message
        self.record_entry(entry)

    def record_entry(self, entry: dict) -> None:
        """Append one pre-built record (minimal checks)."""
        if entry.get("status") not in _STATUSES:
            raise ValueError(f"unknown manifest status {entry.get('status')!r}")
        if not isinstance(entry.get("digest"), str):
            raise ValueError("manifest entry needs a string digest")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
            handle.flush()

    def entries(self) -> list[dict]:
        """All records in append order, skipping *and counting* torn lines."""
        self.torn_lines = 0
        if not self.path.exists():
            return []
        records = []
        for line in self.path.read_bytes().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):
                record = None
            if (isinstance(record, dict)
                    and isinstance(record.get("digest"), str)
                    and record.get("status") in _STATUSES):
                records.append(record)
            else:
                self.torn_lines += 1
        return records

    def latest(self) -> dict[str, dict]:
        """The most recent record per digest."""
        state: dict[str, dict] = {}
        for record in self.entries():
            state[record["digest"]] = record
        return state

    def failed_digests(self) -> set[str]:
        """Digests whose latest recorded outcome is a failure."""
        return {digest for digest, record in self.latest().items()
                if record.get("status") == "failed"}

    def completed_digests(self) -> set[str]:
        """Digests whose latest recorded outcome is ok or cached."""
        return {digest for digest, record in self.latest().items()
                if record.get("status") in ("ok", "cached")}

    def __len__(self) -> int:
        return len(self.entries())
