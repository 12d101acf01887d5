"""Content-addressed on-disk result cache.

Entries are keyed by :meth:`WorkloadSpec.digest` — a SHA-256 over the
spec's canonical JSON plus :data:`~repro.runtime.spec.RESULT_SCHEMA_VERSION`
— so a repeated sweep, a benchmark re-run, or an interrupted sweep run
again (which is how a sweep resumes) skips every unit already
simulated, while any change to the spec (graph seed, system
parameters, iteration cap, ...) or to the result schema misses
cleanly.  Each entry is one human-inspectable JSON file holding
the spec alongside the result, written atomically (tmp + rename) so a
killed sweep never leaves a truncated entry behind.  Any entry that
does not parse into a result reads as a miss, and is counted and
deleted: a corrupt entry never raises.  The lease executor's work
queue keeps its nodes' results in the same layout under ``results/``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from ..harness.runner import WorkloadResult
from ..obs import OBSERVER as _obs
from .spec import WorkloadSpec

__all__ = ["ResultCache", "default_cache_dir", "write_json_atomic"]


def write_json_atomic(path: Path, payload: dict,
                      exclusive: bool = False) -> bool:
    """Publish ``payload`` at ``path`` whole, never torn.

    The payload is staged in a tmp file beside ``path``, then renamed
    over it, or with ``exclusive`` hard-linked into place, which fails
    for all but one racer.  Returns False only when an exclusive
    create lost to an existing file.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            # No sort_keys: a result's configuration order is part of
            # the payload (Figure 5 presentation order).  ``dumps``, not
            # ``dump``: only the one-shot encoder runs in C.
            handle.write(json.dumps(payload))
        if not exclusive:
            os.replace(tmp, path)
            return True
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        return True
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass  # already renamed into place


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, or ``~/.cache/repro`` when unset."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class ResultCache:
    """Digest-keyed store of workload results under one directory."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = (Path(directory).expanduser() if directory
                          else default_cache_dir())
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def entry_path(self, digest: str) -> Path:
        """The entry file a digest addresses."""
        return self.directory / f"{digest}.json"

    def path_for(self, spec: WorkloadSpec) -> Path:
        """The entry file a spec addresses."""
        return self.entry_path(spec.digest())

    def load(self, spec: WorkloadSpec) -> WorkloadResult | None:
        """Parse ``spec``'s entry: the result, or None when absent or corrupt.

        This is :meth:`get` without the hit/miss accounting, for readers
        that are not cache lookups (the lease coordinator collecting a
        node's published result, a node checking for one).  Every entry
        that does not parse into a :class:`WorkloadResult` is corrupt —
        counted and deleted (self-healing): the digest embeds the schema
        version, so any unparseable payload *at this path* is garbage — a
        truncated write from a killed process or bit rot — never a
        legitimate entry of another version.
        """
        from .spec import RESULT_SCHEMA_VERSION

        path = self.path_for(spec)
        try:
            text = path.read_bytes()
        except OSError:
            return None
        try:
            payload = json.loads(text)
            if payload["schema"] != RESULT_SCHEMA_VERSION:
                raise ValueError("schema mismatch")
            return WorkloadResult.from_dict(payload["result"])
        except Exception:  # any shape of bad bytes fails closed
            self.corrupt += 1
            path.unlink(missing_ok=True)
            _obs.emit("cache.corrupt", digest=spec.digest(),
                      label=spec.label)
            return None

    def get(self, spec: WorkloadSpec) -> WorkloadResult | None:
        """The cached result for ``spec``, or None (a counted miss).

        Corrupt entries are misses, deleted on read (see :meth:`load`).
        """
        result = self.load(spec)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        if _obs.enabled:
            _obs.emit("cache.miss" if result is None else "cache.hit",
                      digest=spec.digest(), label=spec.label)
        return result

    def put(self, spec: WorkloadSpec, result: WorkloadResult) -> Path:
        """Store ``result`` under ``spec``'s digest; returns the path."""
        from .spec import RESULT_SCHEMA_VERSION

        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": RESULT_SCHEMA_VERSION,
            "digest": spec.digest(),
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        write_json_atomic(path, payload)
        self.stores += 1
        _obs.emit("cache.store", digest=payload["digest"],
                  label=spec.label)
        return path

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Also sweeps stray ``*.tmp`` files (staged writes orphaned by a
        kill at exactly the wrong moment); those do not count toward the
        returned total.
        """
        removed = 0
        if self.directory.is_dir():
            for entry in self.directory.glob("*.json"):
                entry.unlink(missing_ok=True)
                removed += 1
            for stray in self.directory.glob("*.tmp"):
                stray.unlink(missing_ok=True)
        return removed
