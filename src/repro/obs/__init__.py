"""Structured observability: typed events, pluggable sinks, metrics.

The runtime (executors, result cache), harness (sweep, runner) and
simulator report into one process-wide :class:`Observer`:

* **Events** (:mod:`repro.obs.events`) — timestamped, taxonomy-checked
  records of discrete happenings: unit lifecycle, retries, quarantine,
  worker-node membership and leases, cache hits/misses/heals, sweep
  phase boundaries.  They flow to :mod:`repro.obs.sinks` (JSONL file,
  in-memory ring) and can be rendered as a Chrome trace by
  ``tools/events_to_chrometrace.py``.
* **Metrics** (:mod:`repro.obs.metrics`) — counters/gauges/histograms
  with a JSON ``snapshot()``.  Each counter but ``sim.ops`` and
  ``sim.kernels`` counts events: the taxonomy names the counter each
  event kind bumps.
  The :mod:`repro.perf` phase-timing collector is folded in as the
  ``perf`` source rather than remaining a parallel reporting channel.

The observer is a *strict observer*: it is disabled by default, the
disabled path is a single attribute check, and nothing it does may
change modeled numbers — the golden-timing tests run with events on and
assert bit-identity.  It is also per-process: a worker node journals its
own events to a file in the work queue, and the coordinator forwards
them into its own observer (:meth:`Observer.forward`), where they count
exactly like local events.  Metrics that are not event counts
(simulator histograms, ``sim.ops``) die with the node, so they cover
in-process (serial) execution, mirroring ``repro.perf``'s contract.
"""

from __future__ import annotations

from .events import EVENT_KINDS, Event
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .sinks import JsonlSink, RingBufferSink, Sink

__all__ = [
    "Event",
    "EVENT_KINDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sink",
    "JsonlSink",
    "RingBufferSink",
    "Observer",
    "OBSERVER",
    "enable",
    "disable",
]


class Observer:
    """Event fan-out plus a metrics registry behind one ``enabled`` flag.

    Instrumented code holds the module-level :data:`OBSERVER` and guards
    with ``if obs.enabled:`` (hot paths) or calls :meth:`emit`
    unconditionally (cold paths — the disabled fast path is one
    attribute check and a return).
    """

    __slots__ = ("enabled", "sinks", "metrics")

    def __init__(self) -> None:
        self.enabled = False
        self.sinks: list[Sink] = []
        self.metrics = MetricsRegistry()

    def add_sink(self, sink: Sink) -> Sink:
        """Attach a sink; returns it for chaining."""
        self.sinks.append(sink)
        return sink

    def emit(self, kind: str, **data) -> None:
        """Record one event here and now (no-op while disabled)."""
        if self.enabled:
            self.forward(Event(kind=kind, data=data))

    def forward(self, event: Event) -> None:
        """Count ``event`` and fan it out to every sink, timestamp intact
        (also for events another process recorded)."""
        if not self.enabled:
            return
        counter = event.counter()
        if counter is not None:
            self.metrics.counter(counter).inc()
        for sink in self.sinks:
            sink.emit(event)

    def close_sinks(self) -> None:
        """Close and detach every sink."""
        for sink in self.sinks:
            sink.close()
        self.sinks.clear()

    def reset(self) -> None:
        """Back to the pristine state: disabled, no sinks, zeroed metrics."""
        self.enabled = False
        self.close_sinks()
        self.metrics.reset()


def _perf_source() -> dict | None:
    """The ``repro.perf`` collector's snapshot (None while disabled)."""
    from ..perf import metrics_source

    return metrics_source()


#: The process-wide observer every instrumented module reports into.
OBSERVER = Observer()
OBSERVER.metrics.register_source("perf", _perf_source)


def enable(events: str | None = None,
           ring: int | None = None) -> Observer:
    """Zero and enable the process observer; attach the requested sinks.

    ``events`` is a JSONL path, ``ring`` an in-memory buffer capacity.
    Returns :data:`OBSERVER` so callers can attach further sinks or read
    ``metrics`` afterwards.
    """
    OBSERVER.reset()
    if events is not None:
        OBSERVER.add_sink(JsonlSink(events))
    if ring is not None:
        OBSERVER.add_sink(RingBufferSink(ring))
    OBSERVER.enabled = True
    return OBSERVER


def disable() -> None:
    """Disable the process observer and release its sinks."""
    OBSERVER.enabled = False
    OBSERVER.close_sinks()
