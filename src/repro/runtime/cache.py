"""Content-addressed on-disk result cache.

Entries are keyed by :meth:`WorkloadSpec.digest` — a SHA-256 over the
spec's canonical JSON plus :data:`~repro.runtime.spec.RESULT_SCHEMA_VERSION`
— so a repeated sweep, a benchmark re-run, or a resumed interrupted sweep
skips every unit already simulated, while any change to the spec (graph
seed, system parameters, iteration cap, ...) or to the result schema
misses cleanly.  Each entry is one human-inspectable JSON file holding
the spec alongside the result, written atomically (tmp + rename) so a
killed sweep never leaves a truncated entry behind.

:class:`ShardedResultCache` keeps the same protocol but spreads entries
across digest-prefix subdirectories — the layout the multi-node backend
uses so a fleet of workers never contends on one directory.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from ..harness.runner import WorkloadResult
from ..obs import OBSERVER as _obs
from .spec import WorkloadSpec

__all__ = ["ResultCache", "ShardedResultCache", "default_cache_dir",
           "write_json_atomic"]


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
        """The entry file a digest addresses (the layout hook subclasses
        override; everything else goes through here)."""
        return self.directory / f"{digest}.json"

    def path_for(self, spec: WorkloadSpec) -> Path:
        """The entry file a spec addresses."""
        return self.entry_path(spec.digest())

    def get(self, spec: WorkloadSpec) -> WorkloadResult | None:
        """The cached result for ``spec``, or None.

        Corrupt or schema-mismatched entries are treated as misses and
        deleted (self-healing): the digest embeds the schema version, so
        any unparseable payload *at this path* is garbage — a truncated
        write from a killed process or bit rot — never a legitimate
        entry of another version.
        """
        from .spec import RESULT_SCHEMA_VERSION

        digest = spec.digest()
        path = self.entry_path(digest)
        try:
            payload = json.loads(path.read_text())
            if payload.get("schema") != RESULT_SCHEMA_VERSION:
                raise ValueError("schema mismatch")
            result = WorkloadResult.from_dict(payload["result"])
        except OSError:
            self.misses += 1
            _obs.emit("cache.miss", digest=digest, label=spec.label)
            if _obs.enabled:
                _obs.metrics.counter("cache.misses").inc()
            return None
        except (ValueError, KeyError, TypeError):
            self.misses += 1
            self.corrupt += 1
            path.unlink(missing_ok=True)
            _obs.emit("cache.corrupt", digest=digest, label=spec.label)
            _obs.emit("cache.miss", digest=digest, label=spec.label)
            if _obs.enabled:
                _obs.metrics.counter("cache.corrupt").inc()
                _obs.metrics.counter("cache.misses").inc()
            return None
        self.hits += 1
        _obs.emit("cache.hit", digest=digest, label=spec.label)
        if _obs.enabled:
            _obs.metrics.counter("cache.hits").inc()
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
        if _obs.enabled:
            _obs.metrics.counter("cache.stores").inc()
        return path

    #: Glob (relative to ``directory``) matching every entry file.
    _ENTRY_GLOB = "*.json"
    _TMP_GLOB = "*.tmp"

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob(self._ENTRY_GLOB))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Also sweeps stray ``*.tmp`` files (staged writes orphaned by a
        kill at exactly the wrong moment); those do not count toward the
        returned total.
        """
        removed = 0
        if self.directory.is_dir():
            for entry in self.directory.glob(self._ENTRY_GLOB):
                entry.unlink(missing_ok=True)
                removed += 1
            for stray in self.directory.glob(self._TMP_GLOB):
                stray.unlink(missing_ok=True)
        return removed


class ShardedResultCache(ResultCache):
    """A result cache sharded into subdirectories by digest prefix.

    Entries live at ``directory/<digest[:prefix_len]>/<digest>.json``.
    Sharding is the fleet-facing layout: N nodes hammering one flat
    directory serialize on its dentry lock and make every listing O(all
    entries), while 256 prefix shards spread both the lock and the
    listings.  Digests are SHA-256 hex, so entries spread uniformly by
    construction.  The atomic tmp+rename write protocol is inherited
    unchanged — the staging file lands *inside* the shard so the rename
    never crosses a directory (or filesystem) boundary — and a flat and
    a sharded cache over the same directory never alias (entries sit at
    different paths), so the layouts cannot silently mix.
    """

    _ENTRY_GLOB = "*/*.json"
    _TMP_GLOB = "*/*.tmp"

    def __init__(self, directory: str | Path | None = None,
                 prefix_len: int = 2) -> None:
        if not 1 <= prefix_len <= 8:
            raise ValueError("prefix_len must be within [1, 8]")
        super().__init__(directory)
        self.prefix_len = prefix_len

    def entry_path(self, digest: str) -> Path:
        return self.directory / digest[: self.prefix_len] / f"{digest}.json"

    def shards(self) -> list[Path]:
        """The shard directories currently populated, sorted."""
        if not self.directory.is_dir():
            return []
        return sorted(path for path in self.directory.iterdir()
                      if path.is_dir())
