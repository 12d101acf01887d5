"""Observability-layer tests: events, sinks, metrics, and the contract.

The observer is a *strict observer*: disabled by default, and — enabled
or not — it may never change modeled numbers.  This file pins that
contract (golden bit-identity with events on), the event taxonomy and
JSONL round-trip, the metrics registry, the metrics-vs-outcomes
agreement under fault injection, the Chrome-trace converter, and the
CLI ``--events``/``--metrics`` surface.
"""

import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.configs import parse_config
from repro.graph.datasets import load_dataset
from repro.harness.runner import run_workload
from repro.obs import (
    EVENT_KINDS,
    Event,
    JsonlSink,
    MetricsRegistry,
    RingBufferSink,
)
from repro.runtime import (
    ExecutionPlan,
    FaultInjector,
    FaultRule,
    ResultCache,
    RetryPolicy,
    UnitFailure,
    WorkQueue,
    run_plan,
    run_unit,
)
from repro.sim.config import SystemConfig, scaled_system

FIXTURE = Path(__file__).parent / "data" / "golden_timing.json"
TOOLS = Path(__file__).parent.parent / "tools"

SMALL_SCALES = {"DCT": 64, "RAJ": 32}


@pytest.fixture(autouse=True)
def _pristine_observer():
    """The observer is process-wide state; leave it as we found it."""
    obs.OBSERVER.reset()
    yield
    obs.OBSERVER.reset()


@pytest.fixture(scope="module")
def small_plan():
    system = SystemConfig(
        num_sms=4,
        l1_bytes=1024,
        l2_bytes=16 * 1024,
        tb_size=64,
        max_tbs_per_sm=2,
        kernel_launch_cycles=100,
    )
    return ExecutionPlan.for_sweep(
        ("DCT", "RAJ"), ("PR", "CC"),
        max_iters=2,
        scales=SMALL_SCALES,
        base_system=system,
    )


def _ring(observer) -> RingBufferSink:
    return next(sink for sink in observer.sinks
                if isinstance(sink, RingBufferSink))


def _golden_workloads():
    payload = json.loads(FIXTURE.read_text())
    return [
        pytest.param(wl, id=f"{wl['app']}-{wl['dataset']}")
        for wl in payload["workloads"]
    ]


class TestEvents:
    def test_taxonomy_is_validated(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            Event(kind="unit.exploded")

    def test_payload_may_not_shadow_envelope(self):
        with pytest.raises(ValueError, match="shadow"):
            Event(kind="unit.started", data={"kind": "oops"})
        with pytest.raises(ValueError, match="shadow"):
            Event(kind="unit.started", data={"ts": 1.0})

    def test_dict_and_json_round_trip(self):
        event = Event(kind="unit.retried", ts=12.5,
                      data={"digest": "abc", "label": "DCT/PR",
                            "attempt": 2, "cause": "crash"})
        record = json.loads(event.to_json())
        assert record["kind"] == "unit.retried"
        assert record["cause"] == "crash"
        assert Event.from_dict(record) == event

    def test_disabled_emit_is_a_noop_even_for_bad_kinds(self):
        # The disabled fast path returns before constructing the Event,
        # so instrumented code pays one attribute check and nothing else.
        assert not obs.OBSERVER.enabled
        obs.OBSERVER.emit("not.even.a.kind", junk=object())

    def test_enabled_emit_validates(self):
        observer = obs.enable(ring=8)
        with pytest.raises(ValueError, match="unknown event kind"):
            observer.emit("not.a.kind")


class TestSinks:
    def test_jsonl_sink_appends_flushed_lines(self, tmp_path):
        path = tmp_path / "logs" / "events.jsonl"
        sink = JsonlSink(path)
        sink.emit(Event(kind="plan.started", data={"units": 4}))
        sink.emit(Event(kind="plan.finished", data={"ok": 4}))
        # Flushed per event: readable before close.
        assert len(path.read_text().splitlines()) == 2
        sink.close()
        assert sink.dropped == 0

    def test_jsonl_sink_drops_after_close(self, tmp_path):
        sink = JsonlSink(tmp_path / "e.jsonl")
        sink.close()
        sink.emit(Event(kind="plan.started"))
        assert sink.dropped == 1

    def test_ring_buffer_bounds_and_counts(self):
        sink = RingBufferSink(capacity=3)
        for _ in range(5):
            sink.emit(Event(kind="cache.hit"))
        assert len(sink) == 3
        assert sink.total == 5
        assert len(sink.events("cache.hit")) == 3
        assert sink.events("cache.miss") == []

    def test_ring_buffer_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        for value in (1.0, 3.0, 2.0):
            registry.histogram("h").observe(value)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 5}
        assert snap["gauges"] == {"g": 2.5}
        assert snap["histograms"]["h"] == {
            "count": 3, "total": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0}

    def test_counters_only_go_up(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_cross_type_name_reuse_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="different type"):
            registry.histogram("x")

    def test_reset_keeps_sources(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.register_source("src", lambda: {"a": 1})
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"] == {}
        assert snap["sources"] == {"src": {"a": 1}}

    def test_silent_sources_are_omitted(self):
        registry = MetricsRegistry()
        registry.register_source("quiet", lambda: None)
        assert "sources" not in registry.snapshot()

    def test_perf_collector_is_folded_in(self):
        from repro.perf import collector

        collector.reset()
        collector.enabled = True
        try:
            collector.workloads = 3
            snapshot = obs.OBSERVER.metrics.snapshot()
        finally:
            collector.enabled = False
            collector.reset()
        assert snapshot["sources"]["perf"]["workloads"] == 3


class TestDisabledOverheadIsACount:
    """Off, observability and the perf collector cost a count of calls
    that does not grow with modeled work: observer ``enabled`` reads are
    a constant plus one per kernel launch fed, ``emit`` calls a
    constant, and collector ``clock`` calls zero.  Units whose op counts
    differ by at least 2x tell a per-op call from a per-unit one.
    """

    @staticmethod
    def _count_calls(patch, calls: Counter) -> None:
        """Move the process-wide observer and collector onto subclasses
        that count into ``calls``; layouts match, so ``__class__`` swaps."""
        from repro.perf import PerfCollector, collector

        slot = obs.Observer.enabled  # the slot's member descriptor

        class CountingObserver(obs.Observer):
            __slots__ = ()

            @property
            def enabled(self):
                calls["enabled"] += 1
                return slot.__get__(self)

            @enabled.setter
            def enabled(self, value):
                slot.__set__(self, value)

            def emit(self, kind, **data):
                calls["emit"] += 1
                super().emit(kind, **data)

        class CountingCollector(PerfCollector):
            __slots__ = ()

            @staticmethod
            def clock():
                calls["clock"] += 1
                return PerfCollector.clock()

        patch.setattr(obs.OBSERVER, "__class__", CountingObserver)
        patch.setattr(collector, "__class__", CountingCollector)

    @staticmethod
    def _ops(spec) -> int:
        from repro.perf import collector

        collector.reset()
        collector.enabled = True
        try:
            run_plan([spec], cache=None)
            return collector.ops
        finally:
            collector.enabled = False
            collector.reset()

    @pytest.mark.parametrize("app, graph", [("PR", "DCT"), ("CC", "RAJ")])
    def test_calls_do_not_scale_with_ops(self, app, graph, monkeypatch):
        specs = [ExecutionPlan.for_sweep((graph,), (app,), max_iters=iters,
                                         scales=SMALL_SCALES)[0]
                 for iters in (1, 2, 4)]
        ops = [self._ops(spec) for spec in specs]
        assert ops[-1] >= 2 * ops[0], ops

        per_unit = []  # (enabled reads beyond one per kernel, emit, clock)
        for spec in specs:
            calls = Counter()
            with monkeypatch.context() as patch:
                self._count_calls(patch, calls)
                [result] = run_plan([spec], cache=None)
            kernels = sum(len(sim.kernel_cycles)
                          for sim in result.results.values())
            per_unit.append((calls["enabled"] - kernels, calls["emit"],
                             calls["clock"]))
        reads, emits, clocks = zip(*per_unit)
        assert len(set(reads)) == 1, \
            f"enabled reads beyond one per kernel grow with ops: {reads}"
        assert len(set(emits)) == 1, f"emit calls grow with ops: {emits}"
        assert set(clocks) == {0}, f"collector clock called: {clocks}"


class TestGoldenEquivalenceWithEventsOn:
    """Acceptance: all 30 golden configs bit-identical with events on."""

    @pytest.mark.parametrize("wl", _golden_workloads())
    def test_bit_identical_with_observer_enabled(self, wl, tmp_path):
        observer = obs.enable(events=str(tmp_path / "e.jsonl"), ring=512)
        graph = load_dataset(wl["dataset"], scale=wl["scale"])
        result = run_workload(
            wl["app"], graph,
            configs=[parse_config(c) for c in wl["configs"]],
            system=scaled_system(wl["scale"]),
            max_iters=wl["max_iters"],
        )
        for code in wl["configs"]:
            assert result.results[code].to_dict() == wl["results"][code], \
                f"{wl['app']}/{wl['dataset']}/{code} drifted with events on"
        # The observer did observe: one simulated workload, sim metrics.
        simulated = _ring(observer).events("workload.simulated")
        assert len(simulated) == 1
        assert simulated[0].data["configs"] == wl["configs"]
        counters = observer.metrics.snapshot()["counters"]
        assert counters["sim.workloads"] == 1
        assert counters["sim.ops"] > 0


class TestJsonlRoundTrip:
    def test_plan_event_log_parses_and_is_complete(self, small_plan,
                                                   tmp_path):
        path = tmp_path / "events.jsonl"
        obs.enable(events=str(path))
        cache = ResultCache(tmp_path / "cache")
        run_plan(small_plan, jobs=1, cache=cache)
        run_plan(small_plan, jobs=1, cache=cache)  # all hits this time
        obs.disable()

        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert records, "no events were written"
        for record in records:
            assert record["kind"] in EVENT_KINDS
            assert isinstance(record["ts"], float)
            # A parsed line reconstructs the exact event.
            clone = Event.from_dict(record)
            assert clone.to_dict() == record

        kinds = [record["kind"] for record in records]
        assert kinds[0] == "plan.started"
        assert kinds[-1] == "plan.finished"
        assert kinds.count("plan.started") == 2
        assert kinds.count("unit.finished") == len(small_plan)
        assert kinds.count("cache.miss") == len(small_plan)
        assert kinds.count("cache.store") == len(small_plan)
        assert kinds.count("cache.hit") == len(small_plan)
        assert kinds.count("unit.cached") == len(small_plan)

        # Per-unit and cache events carry their digest + label.
        digests = {spec.digest(): spec.label for spec in small_plan}
        scoped = [record for record in records
                  if record["kind"].startswith(("unit.", "cache."))]
        assert scoped
        for record in scoped:
            assert digests[record["digest"]] == record["label"]

    def test_serial_overrun_is_an_event(self, small_plan):
        observer = obs.enable(ring=64)
        policy = RetryPolicy(max_attempts=2, timeout=1e-6)
        outcome = run_unit(small_plan[0], policy=policy)
        assert outcome.ok
        (overrun,) = _ring(observer).events("unit.overrun")
        assert overrun.data["label"] == small_plan[0].label
        assert overrun.data["budget"] == policy.timeout
        assert overrun.data["elapsed"] > policy.timeout
        counters = observer.metrics.snapshot()["counters"]
        assert counters["units.overrun"] == 1


class TestMetricsMatchOutcomes:
    def test_crash_and_retry_sweep_counts_agree(self, small_plan,
                                                tmp_path):
        # Every unit's first attempt dies of a transient fault; RAJ/CC
        # then crashes its worker node for good.  The metrics the
        # coordinator counted (its own plus those folded in from the
        # node event logs) must agree with the outcomes run_plan
        # returned.
        injector = FaultInjector(rules=(
            FaultRule(kind="transient", match="*", attempts=1),
            FaultRule(kind="crash", match="RAJ/CC", attempts=10**6),
        ))
        observer = obs.enable(ring=4096)
        cache = ResultCache(tmp_path / "cache")
        first = run_plan(small_plan, jobs=2, cache=cache, injector=injector)
        # Faults "fixed": the re-run serves survivors from cache and
        # re-simulates only the failed unit.
        second = run_plan(small_plan, jobs=1, cache=cache)

        failed = [outcome for outcome in first
                  if isinstance(outcome, UnitFailure)]
        assert [failure.label for failure in failed] == ["RAJ/CC"]
        assert not any(isinstance(outcome, UnitFailure)
                       for outcome in second)
        survivors = len(first) - len(failed)
        counters = observer.metrics.snapshot()["counters"]
        assert counters["units.finished"] == survivors + len(failed) == 4
        assert counters["units.failed"] == len(failed) == 1
        assert counters["units.cached"] == survivors == 3
        # Attempt-1 transients alone account for four retries; RAJ/CC's
        # attempt-2 crash adds one more.
        assert counters["units.retried"] >= 4
        assert counters["nodes.crashed"] >= 1
        assert counters["lease.expires"] >= 1
        assert counters["units.quarantined"] == 1

        ring = _ring(observer)
        assert ring.events("unit.retried")
        assert ring.events("lease.expire")
        assert [event for event in ring.events("node.leave")
                if event.data["reason"] == "crash"]
        (failed,) = ring.events("unit.failed")
        assert failed.data["label"] == "RAJ/CC"
        assert failed.data["cause"] == "crash"


#: The counters that are not event counts (the simulator's op and
#: kernel throughput); every other counter is defined by the taxonomy.
_NOT_EVENT_COUNTS = ("sim.ops", "sim.kernels")


def _counted_events(ring: RingBufferSink) -> dict:
    """The ring's events counted through the taxonomy's counter entries."""
    assert ring.total == len(ring), "ring overflowed; counts are partial"
    return dict(Counter(event.counter() for event in ring.events()
                        if event.counter() is not None))


def _event_counters(observer) -> dict:
    counters = observer.metrics.snapshot()["counters"]
    return {name: value for name, value in counters.items()
            if name not in _NOT_EVENT_COUNTS}


class TestCountersAreEventCounts:
    """A counter is exactly the number of its events this process saw,
    whether emitted here or folded in from a worker node's log."""

    def test_counters_equal_the_event_log(self, small_plan, tmp_path):
        from repro.serve import ServeClient, ServeConfig, ThreadedServer

        # Serial, through a cache: misses and stores, then hits.
        observer = obs.enable(ring=1 << 16)
        cache = ResultCache(tmp_path / "serial")
        run_plan(small_plan, jobs=1, cache=cache)
        run_plan(small_plan, jobs=1, cache=cache)
        assert _event_counters(observer) == _counted_events(_ring(observer))

        # Two nodes under the crash-and-retry faults: node-side events
        # (simulations, stores, retries, lease traffic) count once each.
        observer = obs.enable(ring=1 << 16)
        injector = FaultInjector(rules=(
            FaultRule(kind="transient", match="*", attempts=1),
            FaultRule(kind="crash", match="RAJ/CC", attempts=10**6),
        ))
        run_plan(small_plan, jobs=2, cache=ResultCache(tmp_path / "nodes"),
                 injector=injector)
        counts = _counted_events(_ring(observer))
        assert _event_counters(observer) == counts
        assert counts["sim.workloads"] >= 3  # simulated on the nodes
        assert counts["cache.stores"] >= 6  # by the nodes and the caller

        # A serve round: a cold submit simulated on the daemon's nodes,
        # then a warm one answered from its cache.
        observer = obs.enable(ring=1 << 16)
        config = ServeConfig(uds=tmp_path / "serve.sock",
                             cache_dir=tmp_path / "serve-cache")
        with ThreadedServer(config) as server:
            with ServeClient(server.endpoints[0]) as client:
                assert client.submit(small_plan[0])["source"] == "simulated"
                assert client.submit(small_plan[0])["source"] == "cache"
        counts = _counted_events(_ring(observer))
        assert _event_counters(observer) == counts
        assert counts["serve.hits"] == counts["sim.workloads"] == 1

    def test_corrupt_lease_expiry_is_counted(self, small_plan, tmp_path):
        observer = obs.enable(ring=64)
        queue = WorkQueue(tmp_path / "queue")
        queue.seed([small_plan[0]])
        spec, _ = queue.claim("a")
        (queue.leases_dir / f"{spec.digest()}.json").write_text("{torn")
        assert queue.reclaim_expired() == []
        (expire,) = _ring(observer).events("lease.expire")
        assert expire.data["reason"] == "corrupt"
        assert observer.metrics.counter("lease.expires").value == 1


def _load_chrometrace_tool():
    spec = importlib.util.spec_from_file_location(
        "events_to_chrometrace", TOOLS / "events_to_chrometrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestChromeTrace:
    def test_faulted_run_converts_with_retry_and_recycle_markers(
            self, small_plan, tmp_path):
        # The acceptance scenario: a fault-injected run's event log must
        # convert to a Chrome trace that shows the retry and the node
        # that died.
        events_path = tmp_path / "events.jsonl"
        obs.enable(events=str(events_path))
        injector = FaultInjector(rules=(
            FaultRule(kind="crash", match="DCT/CC", attempts=1),))
        outcomes = run_plan(small_plan, jobs=2, injector=injector)
        obs.disable()
        assert all(outcome.ok for outcome in outcomes)

        tool = _load_chrometrace_tool()
        out_path = tmp_path / "trace.json"
        assert tool.main([str(events_path), "-o", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        entries = payload["traceEvents"]

        slices = [e for e in entries if e["ph"] == "X"]
        instants = [e for e in entries if e["ph"] == "i"]
        labels = {spec.label for spec in small_plan}
        assert {s["name"].split(" ")[0] for s in slices} == labels
        assert any(e["name"] == "unit.retried" for e in instants)
        assert any(e["name"] == "node.leave"
                   and e["args"]["reason"] == "crash" for e in instants)
        # Every unit row is named via thread metadata.
        named = {e["args"]["name"] for e in entries if e["ph"] == "M"}
        assert labels <= named
        # Nothing in our own log is an unknown kind to the converter.
        assert "reproSkippedKinds" not in payload

    def test_torn_tail_is_tolerated(self, tmp_path):
        tool = _load_chrometrace_tool()
        path = tmp_path / "e.jsonl"
        path.write_text(
            Event(kind="plan.started", ts=1.0).to_json() + "\n"
            + '{"kind": "unit.started", "ts": 1.5, "label": "DCT/P')
        events, torn = tool.read_events(path)
        assert len(events) == 1 and torn == 1
        payload = tool.convert(events)
        assert payload["traceEvents"]

    def test_empty_log_converts(self, tmp_path):
        tool = _load_chrometrace_tool()
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        events, torn = tool.read_events(path)
        assert tool.convert(events) == {"traceEvents": [],
                                        "displayTimeUnit": "ms"}


class TestCLI:
    def test_sweep_with_events_and_metrics(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert main(["sweep", "--graphs", "DCT,RAJ", "--apps", "PR",
                     "--iters", "1", "--no-cache",
                     "--events", str(events_path), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Sweep summary" in out
        assert f"event log written to {events_path}" in out
        assert "Metrics: counters" in out
        assert "Metrics: histograms" in out
        kinds = {json.loads(line)["kind"]
                 for line in events_path.read_text().splitlines()}
        assert {"plan.started", "unit.started", "workload.simulated",
                "unit.finished", "plan.finished",
                "sweep.phase"} <= kinds
        # The CLI turned the observer back off on its way out.
        assert not obs.OBSERVER.enabled

    def test_run_with_metrics_only(self, capsys):
        assert main(["run", "DCT", "SSSP", "--configs", "TG0,SGR",
                     "--iters", "1", "--no-cache", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out
        assert "Metrics: counters" in out

    def test_sweep_rejects_unknown_graph_key(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown graph"):
            main(["sweep", "--graphs", "DCT,NOPE", "--iters", "1"])

    def test_gap_cell_reports_unsimulated_prediction(self):
        from repro.cli import _gap_cell

        class Row:
            prediction_exact = False
            prediction_gap = float("nan")

        assert _gap_cell(Row()) == "no (not simulated)"
        assert math.isnan(Row.prediction_gap)  # the input really is nan
