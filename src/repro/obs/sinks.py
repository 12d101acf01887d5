"""Pluggable event sinks: where emitted :class:`Event` records go.

A sink is anything with ``emit(event)`` and ``close()``.  Two are
provided:

* :class:`JsonlSink` — append-only JSON-lines file, flushed per event so
  a crashed run leaves a readable log whose worst damage is a torn
  last line, which readers skip.
* :class:`RingBufferSink` — bounded in-memory buffer keeping the most
  recent events; cheap enough to leave attached in tests and services.

Sinks must never raise into the instrumented code path: an observer is a
strict observer, so a full disk or closed handle degrades to dropping
events (counted in ``dropped``), never to failing the simulation.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

from .events import Event

__all__ = ["Sink", "JsonlSink", "RingBufferSink"]


class Sink:
    """Interface: receive events one at a time; release resources on close."""

    #: Events this sink failed to persist (best-effort observability).
    dropped: int = 0

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; further ``emit`` calls are undefined."""


class JsonlSink(Sink):
    """Append events to a JSON-lines file, one flushed line per event."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path).expanduser()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        self.dropped = 0

    def emit(self, event: Event) -> None:
        try:
            self._handle.write(event.to_json() + "\n")
            self._handle.flush()
        except (OSError, ValueError):
            # Full disk / closed handle: drop the event, never the run.
            self.dropped += 1

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:  # pragma: no cover - close-time races
            pass


class RingBufferSink(Sink):
    """Keep the most recent ``capacity`` events in memory.

    ``events`` returns them oldest-first; ``total`` counts everything
    ever emitted, so overflow is detectable (``total > len(events)``).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._buffer: deque[Event] = deque(maxlen=capacity)
        self.total = 0
        self.dropped = 0

    def emit(self, event: Event) -> None:
        self._buffer.append(event)
        self.total += 1

    def events(self, kind: str | None = None) -> list[Event]:
        """Buffered events oldest-first, optionally filtered by kind."""
        if kind is None:
            return list(self._buffer)
        return [event for event in self._buffer if event.kind == kind]

    def __len__(self) -> int:
        return len(self._buffer)

