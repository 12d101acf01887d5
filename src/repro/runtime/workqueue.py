"""Crash-safe filesystem work queue: leases, heartbeats, work stealing.

One :class:`WorkQueue` directory holds one sweep's distributed state —
the unit every consumer needs is a plain file, so any number of worker
processes (on one machine or many, over a shared filesystem) can
cooperate with no broker, no sockets, and no state that dies with a
process:

``units/<digest>.json``
    One record per workload unit, keyed by spec content digest: the
    serialized :class:`~repro.runtime.spec.WorkloadSpec` plus the
    node-level attempt count and the last node that held it.
``leases/<digest>.json``
    Ownership claims.  A worker claims a unit by *exclusively* creating
    its lease file (write-to-tmp + ``os.link``, which the filesystem
    arbitrates atomically — exactly one racer wins), then renews the
    embedded heartbeat while it works.  A lease whose heartbeat goes
    stale past its TTL, or whose node is known dead, is reclaimed by
    the coordinator; the next claim by another node is a *steal*.
``done/<digest>.json``
    Exclusive completion markers (same link trick), each naming the
    node, status, attempt and failure of its unit: the one record of
    who completed what.  Duplicate executions — a stalled worker
    finishing after its unit was stolen, or an injected lease race —
    collapse here: the first completion wins, the loser's marker is
    refused and counted as a duplicate.
``results/``
    A :class:`~repro.runtime.cache.ResultCache` all nodes write into
    (atomic tmp+rename per entry).
``events/<node>.jsonl``
    Per-node event logs, folded into the coordinator's observer.

Every transition is content-addressed and idempotent, so the safety
argument never depends on *at-most-once* execution — only completion
and result publication are exclusive.  That is what makes worker death
at any instruction recoverable: the worst a SIGKILL leaves behind is a
dangling lease (reclaimed by TTL), a staged ``.tmp`` (swept), or a torn
event-log line (skipped).

Every reader fails closed, so a corrupt file cannot crash-loop the
nodes that meet it.  A unit record that does not parse is rewritten
from the spec when seeded again, else fails its unit at claim time; a
completion marker that does not parse reads as its unit's failure.
Both yield a :class:`~repro.runtime.faults.UnitFailure` (``error``,
``CorruptRecordError``) naming the file.  A lease that does not parse
is dropped (``lease.expire`` reason ``corrupt``).
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Iterable, Sequence

from ..obs import OBSERVER as _obs
from .cache import ResultCache, write_json_atomic
from .faults import UnitFailure
from .spec import WorkloadSpec

__all__ = ["WorkQueue", "DEFAULT_LEASE_TTL", "CorruptRecordError"]

#: Default lease time-to-live in seconds.  Workers renew at TTL/4, so a
#: healthy node has three missed renewals of slack before it is declared
#: dead; chaos tests shrink this to keep runs fast.
DEFAULT_LEASE_TTL = 30.0


def _read_boot_id() -> str:
    """This boot's identity, or '' when the platform has none.

    Heartbeat expiry wants ``time.monotonic()`` — a wall clock can step
    (NTP correction, suspend/resume) and mass-expire every healthy lease
    or immortalize a dead one.  But monotonic readings are only
    comparable within one boot of one machine, so each lease records the
    boot it was stamped on: a reclaimer on the same boot compares
    monotonically, anyone else (another machine sharing the filesystem,
    or after a reboot) falls back to wall clock, which is the best
    cross-boot information available.
    """
    try:
        return Path("/proc/sys/kernel/random/boot_id").read_text().strip()
    except OSError:
        return ""


_BOOT_ID = _read_boot_id()


def _stems(directory: Path) -> list[str]:
    """The ``*.json`` record names in ``directory``, sorted (one
    ``listdir``: queue scans run on every claim and coordinator wake)."""
    return sorted(name[:-5] for name in os.listdir(directory)
                  if name.endswith(".json"))


class CorruptRecordError(ValueError):
    """A queue file exists but does not hold a well-formed record."""

    def __init__(self, path: Path, problem: str) -> None:
        super().__init__(f"{path}: {problem}")
        self.path = path


def _read_json(path: Path) -> dict | None:
    """Parse ``path``: None when absent, :class:`CorruptRecordError` if bad."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except (OSError, UnicodeDecodeError) as exc:
        raise CorruptRecordError(path, f"unreadable ({exc})") from None
    try:
        payload = json.loads(text)
    except ValueError:
        raise CorruptRecordError(path, "not JSON") from None
    if not isinstance(payload, dict):
        raise CorruptRecordError(path, "not a JSON object")
    return payload


def _field(record: dict, key: str, path: Path, types: tuple,
           default=None):
    """``record[key]``: one of the JSON ``types``; numbers finite, >= 0."""
    value = record.get(key, default)
    if type(value) not in types or (
            type(value) in (int, float) and not 0 <= value < math.inf):
        raise CorruptRecordError(path, f"{key!r} is {value!r}")
    return value


def _parse_unit(record: dict, path: Path) -> tuple[WorkloadSpec, int]:
    """``(spec, charged attempts)`` of a unit record."""
    try:
        spec = WorkloadSpec.from_dict(record["spec"])
    except Exception as exc:  # any malformed spec payload
        raise CorruptRecordError(
            path, f"bad spec ({type(exc).__name__}: {exc})") from None
    return spec, _field(record, "attempts", path, (int,), 0)


def _parse_lease(lease: dict, path: Path, digest: str) -> dict:
    """A lease with its node, label, attempt and clock fields checked."""
    _field(lease, "node", path, (str,))
    _field(lease, "label", path, (str, type(None)))
    for key in ("heartbeat", "heartbeat_mono", "claimed_mono", "ttl"):
        _field(lease, key, path, (int, float, type(None)))
    return dict(lease, digest=digest,
                attempt=_field(lease, "attempt", path, (int,), 1))


def _parse_done(record: dict, path: Path) -> dict:
    """A completion marker with its status, attempt and failure checked."""
    if record.get("status") not in ("ok", "failed"):
        raise CorruptRecordError(path, f"status {record.get('status')!r}")
    if record["status"] == "failed":
        try:
            UnitFailure.from_dict(record["failure"])
        except Exception as exc:  # missing, not a dict, wrong fields
            raise CorruptRecordError(
                path, f"bad failure ({type(exc).__name__}: {exc})") from None
    return dict(record, attempt=_field(record, "attempt", path, (int,), 0))


def corrupt_failure(digest: str, error: CorruptRecordError) -> UnitFailure:
    """The documented outcome of a unit whose queue record is corrupt."""
    return UnitFailure(
        digest=digest, label=f"unit {digest[:12]}", kind="error",
        attempts=0, exception="CorruptRecordError", message=str(error))


class WorkQueue:
    """One sweep's distributed work state under a single directory."""

    def __init__(self, directory: str | Path,
                 lease_ttl: float = DEFAULT_LEASE_TTL) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.directory = Path(directory).expanduser()
        self.lease_ttl = lease_ttl
        self.units_dir = self.directory / "units"
        self.leases_dir = self.directory / "leases"
        self.done_dir = self.directory / "done"
        self.results_dir = self.directory / "results"
        self.events_dir = self.directory / "events"
        self._seq: dict[str, int] = {}  # digest -> seed position, cached
        for path in (self.units_dir, self.leases_dir, self.done_dir,
                     self.results_dir, self.events_dir):
            path.mkdir(parents=True, exist_ok=True)

    # -- shared artifacts -------------------------------------------------

    def result_cache(self) -> ResultCache:
        """The cache every node publishes results into."""
        return ResultCache(self.results_dir)

    def node_event_log(self, node: str) -> Path:
        """Where a node's JSONL event sink writes."""
        return self.events_dir / f"{node}.jsonl"

    # -- seeding and inspection ------------------------------------------

    def seed(self, specs: Iterable[WorkloadSpec]) -> dict:
        """Register units for ``specs`` (idempotent; keyed by digest).

        Re-seeding an existing queue — the resume path — leaves prior
        unit records, completions, and results untouched, so a restarted
        sweep only owes what never finished; a prior record that does
        not parse is rewritten from the spec.  Returns ``{"units": new,
        "skipped": already_present}``.
        """
        added = 0
        skipped = 0
        for position, spec in enumerate(specs):
            digest = spec.digest()
            path = self.units_dir / f"{digest}.json"
            try:
                record = _read_json(path)
                if record is not None:
                    _parse_unit(record, path)
                    skipped += 1
                    continue
            except CorruptRecordError:
                pass  # repaired below from the caller's own spec
            write_json_atomic(path, {
                "digest": digest,
                "label": spec.label,
                "spec": spec.to_dict(),
                "attempts": 0,
                "seq": position,
            })
            added += 1
        _obs.emit("queue.seeded", units=added, skipped=skipped)
        return {"units": added, "skipped": skipped}

    def digests(self) -> list[str]:
        """Every registered unit digest, sorted (deterministic scan order)."""
        return _stems(self.units_dir)

    def _claim_order(self) -> list[str]:
        """Unit digests in the order they were seeded (a plan's order).

        Nodes start units in the order a serial run would, not in
        digest order, so a plan's scheduling intent (say, its heaviest
        graph first) survives parallel execution.  Each record's
        position is read once; one without a position sorts first.
        """
        digests = self.digests()
        seq = {}
        for digest in digests:
            if digest not in self._seq:
                try:
                    record = _read_json(self.units_dir / f"{digest}.json")
                    position = (record or {}).get("seq")
                except CorruptRecordError:
                    position = None
                self._seq[digest] = position if type(position) is int else 0
            seq[digest] = self._seq[digest]
        self._seq = seq
        return sorted(digests, key=lambda digest: (seq[digest], digest))

    def unit_record(self, digest: str) -> dict | None:
        """The raw unit record (None when absent; raises when corrupt)."""
        return _read_json(self.units_dir / f"{digest}.json")

    def lease(self, digest: str) -> dict | None:
        """The checked lease on ``digest``; None when absent or corrupt."""
        path = self.leases_dir / f"{digest}.json"
        try:
            lease = _read_json(path)
            return None if lease is None else _parse_lease(lease, path, digest)
        except CorruptRecordError:
            return None

    def outcome(self, digest: str) -> dict | None:
        """The completion record for ``digest``, or None while pending.

        A marker that does not parse reads as a ``failed`` record (it
        must not look done to claimers and pending to the coordinator).
        """
        path = self.done_dir / f"{digest}.json"
        try:
            record = _read_json(path)
            return None if record is None else _parse_done(record, path)
        except CorruptRecordError as exc:
            return {"digest": digest, "status": "failed", "attempt": 0,
                    "failure": corrupt_failure(digest, exc).to_dict()}

    def done_digests(self) -> set[str]:
        return set(_stems(self.done_dir))

    def drained(self) -> bool:
        """Every registered unit has a completion marker."""
        done = self.done_digests()
        return all(digest in done for digest in self.digests())

    def forget(self, digest: str) -> None:
        """Delete a settled unit's files, record first (private queues)."""
        for directory in (self.units_dir, self.done_dir, self.leases_dir):
            (directory / f"{digest}.json").unlink(missing_ok=True)
        self.result_cache().entry_path(digest).unlink(missing_ok=True)

    # -- the lease protocol ----------------------------------------------

    def claim(self, node: str, injector=None
              ) -> tuple[WorkloadSpec, int] | None:
        """Claim one unclaimed, unfinished unit for ``node``.

        Returns ``(spec, attempt)`` or None when nothing is claimable.
        ``attempt`` is one more than the attempts already charged to the
        unit, whoever ran them.  Claims are exclusive via atomic lease
        creation; a unit whose record shows a prior holder is re-claimed
        as a *steal* (``lease.steal``).  ``injector`` may force a
        duplicate claim over a live lease — the race the completion
        markers must absorb.  A unit whose record does not parse is
        completed as failed on the spot.
        """
        done = self.done_digests()
        for digest in self._claim_order():
            if digest in done:
                continue
            path = self.units_dir / f"{digest}.json"
            try:
                record = self.unit_record(digest)
                if record is None:  # unlinked under us (forgotten)
                    continue
                spec, charged = _parse_unit(record, path)
            except CorruptRecordError as exc:
                self.complete(digest, node, "failed", 0,
                              failure=corrupt_failure(digest, exc).to_dict())
                continue
            attempt = charged + 1
            lease_path = self.leases_dir / f"{digest}.json"
            # Both clocks are stamped: wall for humans and cross-boot
            # readers, monotonic (+ boot identity) so same-boot expiry
            # and deadline math survive wall-clock steps.
            now_mono = time.monotonic()
            payload = {
                "digest": digest,
                "label": spec.label,
                "node": node,
                "attempt": attempt,
                "heartbeat": time.time(),
                "heartbeat_mono": now_mono,
                "claimed_mono": now_mono,
                "boot": _BOOT_ID,
                "ttl": self.lease_ttl,
            }
            if lease_path.exists():
                if injector is None or not injector.duplicate_claim(
                        spec, attempt):
                    continue
                # Injected lease race: claim over the live lease the way
                # a worker with a stale directory listing would.
                write_json_atomic(lease_path, payload)
            elif not write_json_atomic(lease_path, payload, exclusive=True):
                continue  # lost a real race; next unit
            # We hold the lease; re-read the record.  The coordinator
            # may have charged an expired attempt between our record
            # read and the lease create (claim/reclaim race), which
            # would hand this node a stale attempt number — and a
            # deterministic per-attempt fault rule would re-fire on
            # the redo forever.  A record gone by now was withdrawn, and
            # a marker present by now means the holder we raced against
            # finished (it publishes the marker before it releases).
            try:
                current = self.unit_record(digest)
                if current is None or (
                        self.done_dir / f"{digest}.json").exists():
                    lease_path.unlink(missing_ok=True)
                    continue
                record = current
                fresh = _parse_unit(record, path)[1] + 1
            except CorruptRecordError:
                fresh = attempt
            if fresh > attempt:
                attempt = fresh
                payload = dict(payload, attempt=attempt)
                write_json_atomic(lease_path, payload)
            _obs.emit("lease.claim", digest=digest, label=spec.label,
                      node=node, attempt=attempt)
            previous = record.get("last_node")
            if previous is not None and previous != node and attempt > 1:
                _obs.emit("lease.steal", digest=digest, label=spec.label,
                          node=node, from_node=previous, attempt=attempt)
            return spec, attempt
        return None

    def renew(self, digest: str, node: str) -> bool:
        """Refresh ``node``'s heartbeat on its lease; False if lost.

        A False return means the lease was reclaimed (or completed)
        while the worker was heads-down; the worker keeps going — its
        completion will simply lose the exclusive-marker race if
        someone else finished first.
        """
        lease_path = self.leases_dir / f"{digest}.json"
        lease = self.lease(digest)
        if lease is None or lease["node"] != node:
            return False
        if self.outcome(digest) is not None:
            return False
        lease["heartbeat"] = time.time()
        lease["heartbeat_mono"] = time.monotonic()
        lease["boot"] = _BOOT_ID
        write_json_atomic(lease_path, lease)
        _obs.emit("lease.renew", digest=digest, node=node)
        return True

    def release(self, digest: str, node: str) -> None:
        """Drop ``node``'s lease on ``digest`` if it still holds it."""
        lease = self.lease(digest)
        if lease is not None and lease["node"] == node:
            (self.leases_dir / f"{digest}.json").unlink(missing_ok=True)
            _obs.emit("lease.release", digest=digest, node=node)

    def leases(self) -> list[dict]:
        """Every lease that parses, sorted by digest."""
        held = map(self.lease, _stems(self.leases_dir))
        return [lease for lease in held if lease is not None]

    def reclaim_expired(self, dead_nodes: Sequence[str] = (),
                        now: float | None = None,
                        now_mono: float | None = None) -> list[dict]:
        """Expire stale leases (the coordinator's work-stealing sweep).

        A lease expires when its heartbeat is older than its TTL, or
        when its node is in ``dead_nodes`` (a worker the coordinator
        watched die — no reason to wait out the TTL).  Expiry charges
        the unit the attempt that died (``attempts`` in the unit record
        advances to the lease's attempt) and records the late holder so
        the next claim is attributed as a steal.  Returns the expired
        leases.  A lease that does not parse is dropped without a
        charge and is not returned.

        Heartbeat age is measured on the **monotonic** clock whenever
        the lease was stamped on this same boot (see
        :func:`_read_boot_id`): a wall-clock step — NTP jump,
        suspend/resume — must neither mass-expire healthy leases nor
        immortalize dead ones.  Leases from another boot or machine
        fall back to wall-clock age.  ``now`` fast-forwards *elapsed
        time* for tests: passing only ``now`` shifts both clocks by the
        same delta; passing ``now_mono`` as well decouples them, which
        is how the clock-jump regression tests simulate a step.
        """
        wall = time.time() if now is None else now
        if now_mono is not None:
            mono = now_mono
        elif now is None:
            mono = time.monotonic()
        else:
            # `now` alone means "pretend it is later", not "the wall
            # clock stepped": advance the monotonic clock by the same
            # amount so TTL fast-forwarding keeps working.
            mono = time.monotonic() + (now - time.time())
        dead = set(dead_nodes)
        expired = []
        for digest in _stems(self.leases_dir):
            lease_path = self.leases_dir / f"{digest}.json"
            try:
                lease = _read_json(lease_path)
                if lease is None:
                    continue
                lease = _parse_lease(lease, lease_path, digest)
            except CorruptRecordError:
                lease_path.unlink(missing_ok=True)
                _obs.emit("lease.expire", digest=digest, label=None,
                          node=None, reason="corrupt")
                continue
            if self.outcome(digest) is not None:
                # Completed; the marker, not the lease, is authoritative.
                lease_path.unlink(missing_ok=True)
                continue
            if _BOOT_ID and lease.get("boot") == _BOOT_ID \
                    and lease.get("heartbeat_mono") is not None:
                age = mono - lease["heartbeat_mono"]
            else:
                age = wall - (lease.get("heartbeat") or 0.0)
            if lease["node"] in dead:
                reason = "node-death"
            elif age > (lease.get("ttl") or self.lease_ttl):
                reason = "ttl"
            else:
                continue
            self._charge(digest, lease["attempt"], last_node=lease["node"])
            lease_path.unlink(missing_ok=True)
            _obs.emit("lease.expire", digest=digest,
                      label=lease.get("label"), node=lease["node"],
                      reason=reason)
            lease["reason"] = reason
            expired.append(lease)
        return expired

    def _charge(self, digest: str, attempt: int,
                last_node: str | None = None) -> None:
        """Raise a unit's charged attempts to at least ``attempt``
        (a record that does not parse is left for :meth:`claim`)."""
        path = self.units_dir / f"{digest}.json"
        try:
            record = _read_json(path)
            if record is None:
                return
            charged = _parse_unit(record, path)[1]
        except CorruptRecordError:
            return
        record["attempts"] = max(charged, attempt)
        if last_node is not None:
            record["last_node"] = last_node
        write_json_atomic(path, record)

    # -- completion -------------------------------------------------------

    def complete(self, digest: str, node: str, status: str, attempt: int,
                 label: str | None = None,
                 failure: dict | None = None) -> bool:
        """Publish a completion marker; False when another node beat us.

        ``status`` is 'ok' (result in the shared cache) or 'failed'
        (``failure`` carries the :class:`UnitFailure` dict).  Exactly
        one completion wins per digest — the loser of a duplicate
        execution is counted (``unit.duplicate``) and its lease, if
        any, released.
        """
        if status not in ("ok", "failed"):
            raise ValueError(f"unknown completion status {status!r}")
        payload = {
            "digest": digest,
            "label": label,
            "node": node,
            "status": status,
            "attempt": attempt,
        }
        if failure is not None:
            payload["failure"] = failure
        won = write_json_atomic(self.done_dir / f"{digest}.json", payload,
                                exclusive=True)
        if not won:
            _obs.emit("unit.duplicate", digest=digest, node=node)
        self.release(digest, node)
        return won

    def requeue(self, digest: str, charge_attempt: int = 0,
                node: str | None = None) -> None:
        """Reopen a unit with ``charge_attempt`` charged to it.

        Callers: a node whose attempt failed with retries left (``node``
        names it; its lease is released after the charge), and the
        coordinator when an 'ok' marker's cache entry is unreadable.
        The charge makes the redo a new attempt, so a deterministic
        first-attempt-only fault rule cannot re-fire on it forever.
        """
        if charge_attempt > 0:
            self._charge(digest, charge_attempt)
        if node is not None:
            self.release(digest, node)
        (self.done_dir / f"{digest}.json").unlink(missing_ok=True)
