"""Tests for the repro.runtime execution layer.

Covers the acceptance criteria of the runtime refactor: serial and
process-pool executors produce bit-identical results, the result cache
skips simulation on hits and misses cleanly on digest or schema changes,
and every result type round-trips through ``to_dict``/``from_dict``.
"""

import hashlib
import json
import multiprocessing
import os
import tempfile
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.harness.runner import WorkloadResult, run_workload
from repro.harness.sweep import SweepResult, SweepRow, run_sweep
from repro.runtime import (
    ExecutionPlan,
    GraphRef,
    ResultCache,
    SerialExecutor,
    WorkloadSpec,
    run_plan,
)
from repro.runtime import executor as executor_module
from repro.runtime.faults import UnitFailure
from repro.sim.coherence import MemoryStats
from repro.sim.config import SystemConfig, scaled_system
from repro.sim.engine import ExecutionResult
from repro.sim.stalls import StallBreakdown

SMALL_SCALES = {"DCT": 64, "RAJ": 32}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
# JSON-shaped MemoryStats payloads, biased towards real field names and
# int counters so both the accepting and the rejecting paths are hit.
_stats_payloads = st.dictionaries(
    st.sampled_from([f.name for f in fields(MemoryStats)]) | st.text(max_size=6),
    st.integers() | st.dictionaries(st.text(max_size=6),
                                    st.integers() | _json_values, max_size=3)
    | _json_values,
    max_size=6,
) | _json_values


@pytest.fixture(scope="module")
def small_system():
    return SystemConfig(
        num_sms=4,
        l1_bytes=1024,
        l2_bytes=16 * 1024,
        tb_size=64,
        max_tbs_per_sm=2,
        kernel_launch_cycles=100,
    )


@pytest.fixture(scope="module")
def small_plan(small_system):
    return ExecutionPlan.for_sweep(
        ("DCT", "RAJ"), ("PR", "CC"),
        max_iters=2,
        scales=SMALL_SCALES,
        base_system=small_system,
    )


@pytest.fixture(scope="module")
def serial_results(small_plan):
    return run_plan(small_plan, jobs=1)


def _dicts(results):
    return [r.to_dict() for r in results]


def _hammer_put(directory, spec_dict, result_dict, rounds):
    """Worker for the concurrent-writer test (module-level: picklable)."""
    cache = ResultCache(directory)
    spec = WorkloadSpec.from_dict(spec_dict)
    result = WorkloadResult.from_dict(result_dict)
    for _ in range(rounds):
        cache.put(spec, result)
    return rounds


class TestSpecs:
    def test_dataset_ref_roundtrip(self):
        ref = GraphRef.dataset("DCT", scale=64, seed=3)
        assert GraphRef.from_dict(ref.to_dict()) == ref
        assert ref.label == "DCT"

    def test_dataset_ref_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            GraphRef(kind="dataset", source="NOPE")

    def test_mtx_ref_fingerprints_content(self, tmp_path, small_random):
        from repro.graph import save_mtx

        path = tmp_path / "g.mtx"
        save_mtx(small_random, path)
        ref = GraphRef.mtx(path)
        assert ref.fingerprint is not None
        spec = WorkloadSpec.for_workload("PR", ref, max_iters=1)
        digest = spec.digest()
        # Editing the file changes the fingerprint, hence the digest.
        path.write_text(path.read_text() + "\n")
        ref2 = GraphRef.mtx(path)
        spec2 = WorkloadSpec.for_workload("PR", ref2, max_iters=1)
        assert spec2.digest() != digest

    def test_spec_defaults_follow_traversal(self):
        ref = GraphRef.dataset("DCT", scale=64)
        static = WorkloadSpec.for_workload("PR", ref)
        dynamic = WorkloadSpec.for_workload("CC", ref)
        assert static.configs == ("TG0", "SG1", "SGR", "SD1", "SDR")
        assert static.baseline == "TG0"
        assert dynamic.configs == ("DG1", "DGR", "DD1", "DDR")
        assert dynamic.baseline == "DG1"
        assert static.system == scaled_system(64)

    def test_spec_validation(self):
        ref = GraphRef.dataset("DCT", scale=64)
        with pytest.raises(ValueError, match="unknown application"):
            WorkloadSpec.for_workload("APSP", ref)
        with pytest.raises(ValueError, match="baseline"):
            WorkloadSpec(app="PR", graph=ref, configs=("TG0",),
                         baseline="SGR")
        with pytest.raises(ValueError):
            WorkloadSpec(app="PR", graph=ref, configs=("XYZ",),
                         baseline="XYZ")

    def test_spec_roundtrip_and_hashable(self, small_plan):
        for spec in small_plan:
            clone = WorkloadSpec.from_dict(
                json.loads(json.dumps(spec.to_dict())))
            assert clone == spec
            assert hash(clone) == hash(spec)
            assert clone.digest() == spec.digest()

    def test_digest_sensitivity(self, small_plan):
        spec = small_plan[0]
        assert spec.digest() != small_plan[1].digest()
        import dataclasses

        reseeded = dataclasses.replace(spec, seed=spec.seed + 1)
        assert reseeded.digest() != spec.digest()
        capped = dataclasses.replace(spec, max_iters=3)
        assert capped.digest() != spec.digest()

    def test_digest_tracks_schema_version(self, small_plan, monkeypatch):
        from repro.runtime import spec as spec_module

        before = small_plan[0].digest()
        monkeypatch.setattr(spec_module, "RESULT_SCHEMA_VERSION", 99)
        # A spec object digests once; one built under the new schema
        # gets the new address.
        rebuilt = WorkloadSpec.from_dict(small_plan[0].to_dict())
        assert rebuilt.digest() != before

    def test_digest_is_computed_once_per_object(self, small_plan):
        import dataclasses

        spec = WorkloadSpec.from_dict(small_plan[0].to_dict())
        first = spec.digest()
        assert spec.__dict__["_digest"] == first
        assert spec.digest() is first
        # Not a field: equality, hashing and to_dict ignore the memo.
        assert spec == small_plan[0] and hash(spec) == hash(small_plan[0])
        assert spec.to_dict() == small_plan[0].to_dict()
        # replace builds a new object with its own digest, the same as a
        # fresh construction's.
        reseeded = dataclasses.replace(spec, seed=spec.seed + 1)
        fresh = WorkloadSpec.from_dict(
            dict(spec.to_dict(), seed=spec.seed + 1))
        assert "_digest" not in fresh.__dict__
        assert reseeded.digest() == fresh.digest() != first

    def test_digest_is_the_schema_payload_hash(self):
        # Cache entries and perfbench pins are keyed by this formula.
        from repro.graph.datasets import DATASET_KEYS
        from repro.harness.sweep import APPS
        from repro.runtime import RESULT_SCHEMA_VERSION

        for spec in ExecutionPlan.for_sweep(DATASET_KEYS, APPS):
            payload = json.dumps(
                {"schema": RESULT_SCHEMA_VERSION, "spec": spec.to_dict()},
                sort_keys=True, separators=(",", ":"))
            assert spec.digest() == \
                hashlib.sha256(payload.encode("utf-8")).hexdigest()
            assert spec.canonical() == json.dumps(
                spec.to_dict(), sort_keys=True, separators=(",", ":"))
            assert spec.canonical() is spec.canonical()

    def test_plan_digest_is_order_sensitive(self, small_plan):
        reversed_plan = ExecutionPlan(units=small_plan.units[::-1])
        assert reversed_plan.digest() != small_plan.digest()


#: Any JSON value, the payload a queue record or a serve body can carry.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=3)),
    max_leaves=6)

_SPEC_FIELDS = ("app", "configs", "baseline", "system", "max_iters", "seed",
                "graph", "graph.kind", "graph.source", "graph.scale",
                "graph.seed", "graph.fingerprint")
_SYSTEM_FIELDS = tuple(f"system.{f.name}" for f in fields(SystemConfig))


def _is_int(value, minimum):
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= minimum)


#: SystemConfig fields where 0 is a machine that can exist; every other
#: field is a count or a size and must be positive.
_ZERO_OK = {"l1_hit_latency", "remote_l1_latency_min",
            "remote_l1_latency_max", "l2_latency_min", "l2_latency_max",
            "mem_latency_min", "mem_latency_max", "atomic_occupancy",
            "l1_atomic_occupancy", "l2_bank_occupancy", "mem_occupancy",
            "kernel_launch_cycles"}


def _possible_machine(system):
    """Positive counts, non-negative latencies, every range min <= max."""
    return (all(_is_int(getattr(system, f.name),
                        0 if f.name in _ZERO_OK else 1)
                for f in fields(SystemConfig))
            and all(getattr(system, f"{name}_min")
                    <= getattr(system, f"{name}_max")
                    for name in ("remote_l1_latency", "l2_latency",
                                 "mem_latency")))


def _well_typed(spec):
    """Every field of ``spec`` holds a value of its declared type and range."""
    graph = spec.graph
    return (isinstance(spec.app, str)
            and isinstance(graph, GraphRef)
            and isinstance(graph.kind, str)
            and isinstance(graph.source, str)
            and _is_int(graph.scale, 1)
            and _is_int(graph.seed, 0)
            and (graph.fingerprint is None
                 or isinstance(graph.fingerprint, str))
            and isinstance(spec.configs, tuple)
            and all(isinstance(code, str) for code in spec.configs)
            and isinstance(spec.baseline, str)
            and isinstance(spec.system, SystemConfig)
            and _possible_machine(spec.system)
            and (spec.max_iters is None or _is_int(spec.max_iters, 1))
            and _is_int(spec.seed, 0))


class TestSpecFromDictFailsClosed:
    @settings(max_examples=400, deadline=None)
    @given(field=st.sampled_from(_SPEC_FIELDS) | st.sampled_from(_SYSTEM_FIELDS),
           value=_JSON)
    @example(field="max_iters", value="abc")
    @example(field="max_iters", value=-5)
    @example(field="max_iters", value=0)
    @example(field="seed", value="x")
    @example(field="seed", value=[1])
    @example(field="seed", value=True)
    @example(field="graph.scale", value=True)
    @example(field="graph.seed", value=1.0)
    @example(field="graph.fingerprint", value=7)
    @example(field="configs", value=["TG0", 5])
    @example(field="configs", value=["TG0", "sgr"])
    @example(field="baseline", value="tg0")
    @example(field="system.num_sms", value=4.0)
    @example(field="system.num_sms", value="4")
    @example(field="system.l2_banks", value=True)
    @example(field="system.warp_size", value=0)
    @example(field="system.tb_size", value=0)
    @example(field="system.line_bytes", value=0)
    @example(field="system.l1_assoc", value=0)
    @example(field="system.l2_assoc", value=0)
    @example(field="system.l2_banks", value=0)
    @example(field="system.mem_channels", value=0)
    @example(field="system.l1_hit_latency", value=-1)
    @example(field="system.mem_occupancy", value=-6)
    @example(field="system.l2_latency_min", value=70)
    @example(field="system.relaxed_atomic_window", value=0)
    @example(field="system.kernel_launch_cycles", value=0)
    def test_one_field_set_to_any_json_raises_or_round_trips(
            self, small_plan, field, value):
        data = json.loads(json.dumps(small_plan[0].to_dict()))
        *parents, key = field.split(".")
        target = data
        for name in parents:
            target = target[name]
        target[key] = value
        try:
            spec = WorkloadSpec.from_dict(data)
        except (ValueError, TypeError):
            return
        assert _well_typed(spec)
        clone = WorkloadSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.digest() == spec.digest()

    def test_non_canonical_codes_rejected(self, small_plan):
        # ("tg0", "sgr") parses like ("TG0", "SGR") but would digest
        # differently while simulating the same configurations.
        data = json.loads(json.dumps(small_plan[0].to_dict()))
        data["configs"], data["baseline"] = ["tg0", "sgr"], "tg0"
        with pytest.raises(ValueError, match="'tg0' is not canonical.*'TG0'"):
            WorkloadSpec.from_dict(data)
        data["configs"], data["baseline"] = ["TG0", "SGR"], "TG0"
        assert WorkloadSpec.from_dict(data).configs == ("TG0", "SGR")

    def test_valid_digests_unchanged(self):
        # Field validation only rejects: well-formed specs keep the
        # content addresses existing caches were written under.
        spec = WorkloadSpec.for_workload(
            "PR", GraphRef.dataset("DCT", scale=64, seed=3), max_iters=2,
            seed=3)
        assert spec.digest() == ("3cfff7c8cf2ef8119e5f15ec1806f09c"
                                 "55f09c1718b60aa6ecbf13c880d6562c")
        plan = ExecutionPlan.for_sweep(("DCT", "RAJ", "OLS"),
                                       ("PR", "CC", "BFS"), max_iters=2)
        assert plan.digest() == ("6804d776379fc6de6e03f32f84bbb1f0"
                                 "a1ed81edd442842817d629edf388b2b8")


class TestSerialization:
    def test_stall_breakdown_roundtrip(self):
        b = StallBreakdown(busy=1.5, comp=2.0, data=3.25, sync=0.5, idle=9.0)
        clone = StallBreakdown.from_dict(json.loads(json.dumps(b.to_dict())))
        assert clone == b

    def test_memory_stats_roundtrip(self):
        stats = MemoryStats(l1_hits=3, l2_misses=7, atomics=11,
                            extra={"owned_writebacks": 2})
        clone = MemoryStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert clone == stats
        with pytest.raises(ValueError, match="unknown"):
            MemoryStats.from_dict({"bogus": 1})

    @pytest.mark.parametrize("payload, field", [
        ({"l1_hits": "7", "extra": {}}, "l1_hits"),
        ({"acquires": True}, "acquires"),
        ({"stores": 1.0}, "stores"),
        ({"extra": 5}, "extra"),
        ({"extra": {"owned_writebacks": "2"}}, "owned_writebacks"),
        ([("l1_hits", 1)], "mapping"),
        (None, "mapping"),
    ])
    def test_memory_stats_from_dict_fails_closed(self, payload, field):
        with pytest.raises(ValueError, match=field):
            MemoryStats.from_dict(payload)

    @settings(max_examples=200, deadline=None)
    @given(payload=_stats_payloads)
    def test_memory_stats_from_dict_round_trips_or_raises(self, payload):
        try:
            stats = MemoryStats.from_dict(payload)
        except ValueError:
            return
        data = stats.to_dict()
        assert all(data[name] == value for name, value in payload.items())
        assert MemoryStats.from_dict(json.loads(json.dumps(data))) == stats

    def test_execution_result_roundtrip(self, serial_results):
        for workload in serial_results:
            for result in workload.results.values():
                clone = ExecutionResult.from_dict(
                    json.loads(json.dumps(result.to_dict())))
                assert clone == result

    def test_workload_result_roundtrip(self, serial_results):
        for workload in serial_results:
            clone = WorkloadResult.from_dict(
                json.loads(json.dumps(workload.to_dict())))
            assert clone == workload
            assert list(clone.results) == list(workload.results)
            assert clone.baseline == workload.baseline

    def test_run_workload_sets_explicit_baseline(self, small_random,
                                                 tiny_system):
        result = run_workload("PR", small_random, system=tiny_system,
                              max_iters=1)
        assert result.baseline == "TG0"
        # The baseline survives dict reordering: normalized() keys off the
        # explicit field, not insertion order.
        reordered = WorkloadResult(
            app=result.app,
            graph_name=result.graph_name,
            results=dict(reversed(result.results.items())),
            baseline=result.baseline,
        )
        assert reordered.normalized()["TG0"] == pytest.approx(1.0)


def _fixture_workload():
    """A hand-built WorkloadResult touching every serialized field."""
    return WorkloadResult(
        app="PR", graph_name="DCT", baseline="TG0",
        results={
            "TG0": ExecutionResult(
                cycles=120.0, breakdown=StallBreakdown(busy=1.0, data=2.5),
                kernel_cycles=[70.0, 50.0],
                memory_stats=MemoryStats(l1_hits=3,
                                         extra={"owned_writebacks": 1})),
            "SGR": ExecutionResult(cycles=90.5,
                                   breakdown=StallBreakdown(sync=4.0)),
        })


_RESULT_FIELDS = (
    "app", "graph_name", "baseline", "results", "bogus", "results.TG0",
    "results.TG0.cycles", "results.TG0.breakdown",
    "results.TG0.breakdown.busy", "results.TG0.breakdown.bogus",
    "results.TG0.kernel_cycles", "results.TG0.memory_stats",
    "results.TG0.memory_stats.l1_hits", "results.TG0.bogus")


def _with_field(data, field, value):
    """``data`` with the dotted ``field`` set to ``value``."""
    *parents, key = field.split(".")
    target = data
    for name in parents:
        target = target[name]
    target[key] = value
    return data


class TestResultReadersFailClosed:
    """Result readers either round-trip a payload or raise ValueError."""

    @pytest.mark.parametrize("field, value, match", [
        ("results.TG0.cycles", None, "'cycles' must be a finite number"),
        ("results.TG0.cycles", "120", "'cycles' must be a finite number"),
        ("results.TG0.cycles", True, "'cycles' must be a finite number"),
        ("results.TG0.cycles", float("inf"),
         "'cycles' must be a finite number"),
        pytest.param("results.TG0.cycles", 10**400,
                     "'cycles' must be a finite number", id="huge-int-cycles"),
        ("results.TG0.breakdown", [1, 2], "StallBreakdown payload"),
        ("results.TG0.breakdown.busy", "1", "'busy' must be a finite number"),
        ("results.TG0.breakdown.bogus", 1.0, "unknown StallBreakdown"),
        ("results.TG0.kernel_cycles", 5, "'kernel_cycles' has the wrong type"),
        ("results.TG0", [], "ExecutionResult payload"),
        ("results", [], "'results' has the wrong type"),
        ("app", 1, "'app' has the wrong type"),
        ("graph_name", None, "'graph_name' has the wrong type"),
        ("baseline", 3, "'baseline' has the wrong type"),
        ("bogus", 0, "unknown WorkloadResult"),
    ])
    def test_malformed_field_raises_value_error(self, field, value, match):
        data = _with_field(_fixture_workload().to_dict(), field, value)
        with pytest.raises(ValueError, match=match):
            WorkloadResult.from_dict(data)

    def test_missing_fields_are_named(self):
        data = _fixture_workload().to_dict()
        del data["results"]["TG0"]["cycles"]
        with pytest.raises(ValueError, match="'cycles' is missing"):
            WorkloadResult.from_dict(data)
        with pytest.raises(ValueError, match="'app' is missing"):
            WorkloadResult.from_dict({"graph_name": "DCT", "results": {}})

    def test_to_dict_is_unchanged(self):
        # Result digests pinned elsewhere hash these exact bytes.
        assert json.dumps(_fixture_workload().to_dict()) == (
            '{"app": "PR", "graph_name": "DCT", "baseline": "TG0", '
            '"results": {"TG0": {"cycles": 120.0, "breakdown": {"busy": '
            '1.0, "comp": 0.0, "data": 2.5, "sync": 0.0, "idle": 0.0}, '
            '"kernel_cycles": [70.0, 50.0], "memory_stats": {"l1_hits": 3, '
            '"l1_misses": 0, "l2_hits": 0, "l2_misses": 0, "stores": 0, '
            '"atomics": 0, "atomics_local": 0, "atomics_remote_transfer": '
            '0, "ownership_registrations": 0, "acquires": 0, "extra": '
            '{"owned_writebacks": 1}}}, "SGR": {"cycles": 90.5, '
            '"breakdown": {"busy": 0.0, "comp": 0.0, "data": 0.0, "sync": '
            '4.0, "idle": 0.0}, "kernel_cycles": [], "memory_stats": '
            'null}}}')

    @settings(max_examples=400, deadline=None)
    @given(field=st.sampled_from(_RESULT_FIELDS), value=_JSON)
    def test_one_field_set_to_any_json_raises_or_round_trips(self, field,
                                                             value):
        data = _with_field(_fixture_workload().to_dict(), field, value)
        try:
            workload = WorkloadResult.from_dict(data)
        except ValueError:
            return
        clone = WorkloadResult.from_dict(
            json.loads(json.dumps(workload.to_dict())))
        assert clone == workload
        assert list(clone.results) == list(workload.results)

    @settings(max_examples=200, deadline=None)
    @given(payload=_JSON)
    @pytest.mark.parametrize("reader", [StallBreakdown, ExecutionResult,
                                        WorkloadResult])
    def test_any_json_raises_or_round_trips(self, reader, payload):
        try:
            parsed = reader.from_dict(payload)
        except ValueError:
            return
        clone = reader.from_dict(json.loads(json.dumps(parsed.to_dict())))
        assert clone == parsed


def _failure_payload() -> dict:
    return UnitFailure(
        digest="ab12", label="PR@DCT", kind="error", attempts=2,
        exception="ValueError", message="boom", traceback="tb",
        elapsed=1.5).to_dict()


_FAILURE_FIELDS = tuple(f.name for f in fields(UnitFailure)) + ("bogus",)


class TestUnitFailureFailsClosed:
    """``UnitFailure.from_dict`` round-trips a payload or raises
    ValueError naming the field, as the result readers do."""

    @pytest.mark.parametrize("payload, match", [
        pytest.param(dict(_failure_payload(), extra=1),
                     "unknown UnitFailure fields: \\['extra'\\]",
                     id="extra-key"),
        pytest.param(["not", "a", "mapping"],
                     "UnitFailure payload must be a mapping", id="list"),
        pytest.param(dict(_failure_payload(), kind=5, attempts="x"),
                     "'kind' has the wrong type", id="kind-5-attempts-x"),
    ])
    def test_payloads_that_once_got_through(self, payload, match):
        with pytest.raises(ValueError, match=match):
            UnitFailure.from_dict(payload)

    @pytest.mark.parametrize("field, value, match", [
        ("kind", "lost", "'kind' must be one of"),
        ("attempts", "x", "'attempts' has the wrong type"),
        ("attempts", 1.0, "'attempts' has the wrong type"),
        ("attempts", True, "'attempts' must be an int >= 0"),
        ("attempts", -1, "'attempts' must be an int >= 0"),
        ("elapsed", float("inf"), "'elapsed' must be a finite number"),
        ("elapsed", float("nan"), "'elapsed' must be a finite number"),
        ("elapsed", "1.5", "'elapsed' must be a finite number"),
        ("quarantined", 0, "'quarantined' has the wrong type"),
        ("label", None, "'label' has the wrong type"),
    ])
    def test_malformed_field_raises_value_error(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            UnitFailure.from_dict(_with_field(_failure_payload(), field,
                                              value))

    def test_missing_field_is_named(self):
        data = _failure_payload()
        del data["message"]
        with pytest.raises(ValueError, match="'message' is missing"):
            UnitFailure.from_dict(data)

    def test_every_kind_round_trips(self):
        for kind in UnitFailure.KINDS:
            failure = UnitFailure.from_dict(
                dict(_failure_payload(), kind=kind))
            assert UnitFailure.from_dict(failure.to_dict()) == failure

    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(_FAILURE_FIELDS), value=_JSON)
    def test_one_field_set_to_any_json_raises_or_round_trips(self, field,
                                                             value):
        data = _with_field(_failure_payload(), field, value)
        try:
            failure = UnitFailure.from_dict(data)
        except ValueError:
            return
        assert UnitFailure.from_dict(
            json.loads(json.dumps(failure.to_dict()))) == failure

    @settings(max_examples=200, deadline=None)
    @given(payload=_JSON)
    def test_any_json_raises_or_round_trips(self, payload):
        try:
            failure = UnitFailure.from_dict(payload)
        except ValueError:
            return
        assert UnitFailure.from_dict(
            json.loads(json.dumps(failure.to_dict()))) == failure


class TestExecutors:
    def test_parallel_matches_serial_bit_identical(self, small_plan,
                                                   serial_results):
        parallel = run_plan(small_plan, jobs=2)
        assert _dicts(parallel) == _dicts(serial_results)

    def test_explicit_executor_wins_over_jobs(self, small_plan,
                                              serial_results, monkeypatch):
        calls = []
        real = executor_module.execute_spec

        def counting(spec):
            calls.append(spec.label)
            return real(spec)

        monkeypatch.setattr(executor_module, "execute_spec", counting)
        results = run_plan(small_plan, jobs=8, executor=SerialExecutor())
        assert len(calls) == len(small_plan)
        assert _dicts(results) == _dicts(serial_results)

    def test_pool_outlives_runs_and_close_reaps_it(
            self, small_plan, serial_results, tmp_path, monkeypatch):
        from repro.runtime import make_backend

        log = tmp_path / "pids"
        real = executor_module.execute_spec

        def recording(spec):  # runs in the (forked) worker node
            with log.open("a") as handle:
                handle.write(f"{os.getpid()}\n")
            return real(spec)

        monkeypatch.setattr(executor_module, "execute_spec", recording)
        specs = list(small_plan)
        with make_backend("process", jobs=1) as executor:
            nodes = {slot.process.pid for slot in executor._slots}
            first = dict(executor.run(specs[:2]))
            second = dict(executor.run(specs[2:]))
            assert {slot.process.pid for slot in executor._slots} == nodes
        pids = set(log.read_text().split())
        assert pids == {str(pid) for pid in nodes}
        assert len(pids) == 1 and str(os.getpid()) not in pids
        outcomes = [first[0], first[1], second[0], second[1]]
        assert _dicts(outcomes) == _dicts(serial_results)
        assert not multiprocessing.active_children()

    def test_process_backend_gets_exactly_jobs_workers(self):
        from repro.runtime import make_backend

        assert make_backend("process", jobs=1).nodes == 1
        assert make_backend("process", jobs=3).nodes == 3
        assert make_backend("process", jobs=None).nodes == \
            (os.cpu_count() or 1)

    def test_jobs_must_be_positive(self):
        from repro.runtime import make_backend

        with pytest.raises(ValueError):
            make_backend("process", jobs=0)


class TestPlanDedup:
    def test_duplicate_units_simulate_once_and_share_outcome(
            self, small_plan, serial_results, monkeypatch):
        calls = []
        real = executor_module.execute_spec

        def counting(spec):
            calls.append(spec.digest())
            return real(spec)

        monkeypatch.setattr(executor_module, "execute_spec", counting)
        spec = small_plan[0]
        plan = [spec, small_plan[1], spec, spec]
        lines = []
        results = run_plan(plan, jobs=1, progress=lines.append)
        assert len(calls) == 2  # one simulation per distinct digest
        assert set(calls) == {spec.digest(), small_plan[1].digest()}
        assert results[0] is results[2] is results[3]
        assert results[0].to_dict() == serial_results[0].to_dict()
        assert lines.count(f"{spec.label} (coalesced)") == 2

    def test_cache_hits_win_before_dedup(self, small_plan, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = small_plan[0]
        run_plan([spec], jobs=1, cache=cache)
        results = run_plan([spec, spec], jobs=1, cache=cache)
        assert cache.hits == 2  # both slots served from cache, no sim
        assert _dicts(results) == _dicts([results[0], results[0]])

    def test_coalesced_units_emit_events(self, small_plan):
        from repro import obs

        observer = obs.enable(ring=1024)
        try:
            spec = small_plan[0]
            run_plan([spec, spec], jobs=1)
            events = observer.sinks[0].events("unit.coalesced")
            assert len(events) == 1
            assert events[0].data["digest"] == spec.digest()
        finally:
            obs.disable()


class TestResultCache:
    def test_hit_skips_simulation(self, small_plan, serial_results,
                                  tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        first = run_plan(small_plan, jobs=1, cache=cache)
        assert cache.stores == len(small_plan)
        assert len(cache) == len(small_plan)

        def boom(spec):  # pragma: no cover - must never run
            raise AssertionError("cache hit should skip simulation")

        monkeypatch.setattr(executor_module, "execute_spec", boom)
        second = run_plan(small_plan, jobs=1, cache=cache)
        assert cache.hits == len(small_plan)
        assert _dicts(second) == _dicts(first) == _dicts(serial_results)

    def test_digest_change_invalidates(self, small_plan, tmp_path):
        import dataclasses

        cache = ResultCache(tmp_path / "cache")
        spec = small_plan[0]
        run_plan([spec], cache=cache)
        assert cache.get(spec) is not None
        reseeded = dataclasses.replace(spec, seed=spec.seed + 1)
        assert cache.get(reseeded) is None

    def test_schema_bump_invalidates(self, small_plan, tmp_path,
                                     monkeypatch):
        from repro.runtime import spec as spec_module

        cache = ResultCache(tmp_path / "cache")
        spec = small_plan[0]
        run_plan([spec], cache=cache)
        monkeypatch.setattr(spec_module, "RESULT_SCHEMA_VERSION", 99)
        assert cache.get(spec) is None

    def test_old_schema_payload_on_disk_is_ignored(self, small_plan,
                                                   tmp_path):
        # An entry whose *payload* declares an older schema (however it
        # got to this path) is a miss, counted as corrupt, and deleted.
        from repro.runtime.spec import RESULT_SCHEMA_VERSION

        assert RESULT_SCHEMA_VERSION == 1
        cache = ResultCache(tmp_path / "cache")
        spec = small_plan[0]
        run_plan([spec], cache=cache)
        path = cache.path_for(spec)
        payload = json.loads(path.read_text())
        payload["schema"] = 0
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None
        assert cache.corrupt == 1
        assert not path.exists()

    def test_corrupt_entry_is_a_miss_and_self_heals(self, small_plan,
                                                    tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = small_plan[0]
        first = run_plan([spec], cache=cache)
        cache.path_for(spec).write_text("{not json")
        assert cache.get(spec) is None
        # Self-healing: the garbage entry is deleted, counted, and the
        # slot is writable again.
        assert cache.corrupt == 1
        assert not cache.path_for(spec).exists()
        second = run_plan([spec], cache=cache)
        assert _dicts(second) == _dicts(first)
        assert cache.get(spec) is not None
        assert cache.corrupt == 1

    def test_truncated_entry_is_a_miss(self, small_plan, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = small_plan[0]
        run_plan([spec], cache=cache)
        path = cache.path_for(spec)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get(spec) is None
        assert cache.corrupt == 1
        assert not path.exists()

    @pytest.mark.parametrize("payload", [
        [], 3, "x", None,
        {"schema": 1, "result": []},
        {"schema": 1, "result": {"app": "PR", "graph_name": "g",
                                 "results": {"TG0": []}}},
    ])
    def test_any_unparseable_entry_is_a_corrupt_miss(self, small_plan,
                                                    tmp_path, payload):
        cache = ResultCache(tmp_path / "cache")
        spec = small_plan[0]
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None
        assert (cache.misses, cache.corrupt, cache.hits) == (1, 1, 0)
        assert not path.exists()

    @settings(max_examples=150, deadline=None)
    @given(payload=_json_values | st.fixed_dictionaries(
               {"schema": st.just(1), "result": _json_values}),
           real=st.booleans(), patch=st.dictionaries(
               st.sampled_from(["app", "graph_name", "baseline",
                                "results"]), _json_values, max_size=2))
    def test_any_json_entry_reads_as_miss_or_result(
            self, small_plan, serial_results, payload, real, patch):
        # Whatever JSON sits at an entry's path, get() answers None or
        # a result and never raises.
        spec = small_plan[0]
        if real:
            result = dict(serial_results[0].to_dict(), **patch)
            payload = {"schema": 1, "result": result}
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            cache.path_for(spec).write_text(json.dumps(payload))
            hit = cache.get(spec)
            assert hit is None or isinstance(hit, WorkloadResult)
            assert cache.hits + cache.misses == 1

    @settings(max_examples=40, deadline=None)
    @given(index=st.integers(min_value=0, max_value=3),
           graph_name=st.text(max_size=8), data=st.data())
    def test_put_then_get_round_trips(self, small_plan, serial_results,
                                      index, graph_name, data):
        # Any name and any configuration order survive the round trip
        # (the order is the Figure 5 presentation order).
        real = serial_results[index]
        codes = data.draw(st.permutations(list(real.results)))
        result = WorkloadResult(
            app=real.app, graph_name=graph_name, baseline=codes[0],
            results={code: real.results[code] for code in codes})
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp)
            cache.put(small_plan[index], result)
            restored = cache.get(small_plan[index])
            assert restored.to_dict() == result.to_dict()
            assert list(restored.results) == codes
            assert cache.hits == 1 and cache.corrupt == 0

    def test_concurrent_writers_leave_one_clean_entry(self, small_plan,
                                                      serial_results,
                                                      tmp_path):
        import concurrent.futures as cf

        directory = tmp_path / "cache"
        spec = small_plan[0]
        spec_dict = spec.to_dict()
        result_dict = serial_results[0].to_dict()
        with cf.ProcessPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_hammer_put, str(directory), spec_dict,
                                   result_dict, 25) for _ in range(4)]
            for future in futures:
                future.result(timeout=60)
        # Atomic tmp+rename: whatever interleaving won, the entry parses
        # and no staged .tmp files are left behind.
        entries = list(directory.glob("*.json"))
        assert len(entries) == 1
        payload = json.loads(entries[0].read_text())
        assert payload["digest"] == spec.digest()
        assert payload["result"] == result_dict
        assert list(directory.glob("*.tmp")) == []
        cache = ResultCache(directory)
        assert cache.get(spec).to_dict() == result_dict

    def test_entry_is_inspectable_json(self, small_plan, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = small_plan[0]
        run_plan([spec], cache=cache)
        payload = json.loads(cache.path_for(spec).read_text())
        assert payload["digest"] == spec.digest()
        assert payload["spec"] == spec.to_dict()
        assert WorkloadSpec.from_dict(payload["spec"]) == spec

    def test_clear(self, small_plan, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_plan([small_plan[0]], cache=cache)
        (cache.directory / "orphan.tmp").write_text("staged")
        assert cache.clear() == 1  # *.tmp strays swept but not counted
        assert len(cache) == 0
        assert list(cache.directory.glob("*.tmp")) == []


class TestSweepIntegration:
    def test_sweep_parallel_and_warm_cache_match_serial(self, tmp_path,
                                                        monkeypatch):
        kwargs = dict(
            graphs=("DCT", "RAJ"),
            apps=("PR", "CC"),
            max_iters=2,
            scales=SMALL_SCALES,
        )
        serial = run_sweep(**kwargs)
        cache_dir = tmp_path / "cache"
        parallel = run_sweep(jobs=2, backend="process", cache=cache_dir,
                             **kwargs)
        assert not multiprocessing.active_children()  # nodes stopped

        def rows_dict(sweep):
            return [(r.graph, r.app, r.predicted, r.predicted_partial,
                     r.workload.to_dict()) for r in sweep.rows]

        assert rows_dict(parallel) == rows_dict(serial)

        def boom(spec):  # pragma: no cover - must never run
            raise AssertionError("warm cache must not simulate")

        monkeypatch.setattr(executor_module, "execute_spec", boom)
        warm = run_sweep(jobs=1, cache=cache_dir, **kwargs)
        assert rows_dict(warm) == rows_dict(serial)

    def test_sweep_row_index_tracks_direct_appends(self, serial_results):
        sweep = SweepResult()
        first = serial_results[0]
        sweep.rows.append(SweepRow(
            graph="DCT", app=first.app, workload=first,
            predicted="SGR", predicted_partial="SGR",
        ))
        assert sweep.row("DCT", first.app).workload is first
        second = serial_results[1]
        sweep.rows.append(SweepRow(
            graph="DCT", app=second.app, workload=second,
            predicted="DGR", predicted_partial="DGR",
        ))
        assert sweep.row("DCT", second.app).workload is second
        with pytest.raises(KeyError, match="no row"):
            sweep.row("DCT", "XX")
