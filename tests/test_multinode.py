"""Lease executor tests: work queue, leases, shared cache, chaos.

Covers the node-level fault-tolerance layer end to end: the crash-safe
filesystem work queue (atomic lease claims, heartbeat TTL expiry, work
stealing, exclusive completion markers that record each unit's node),
the result cache the nodes share under concurrent writers, the
supervised worker fleet of ``MultiNodeExecutor`` (real SIGKILLs,
restarts, quarantine, inline drain), and the resume path — an
interrupted two-node sweep run again against the same cache picks up
bit-identical to serial with zero re-simulated units.
"""

import concurrent.futures as cf
import json
import multiprocessing
import os
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import main
from repro.harness.runner import WorkloadResult
from repro.runtime import (
    ExecutionPlan,
    FaultInjector,
    FaultRule,
    BACKENDS,
    MultiNodeExecutor,
    ResultCache,
    RetryPolicy,
    SerialExecutor,
    UnitFailure,
    WorkQueue,
    make_backend,
    run_plan,
)
from repro.runtime import coordinator as coordinator_module
from repro.runtime import executor as executor_module
from repro.sim.config import SystemConfig

SMALL_SCALES = {"DCT": 64, "RAJ": 32}


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


@pytest.fixture(autouse=True)
def _obs_clean():
    """Leave no test with the process observer enabled (the CLI worker
    command enables it in-process for ``--events``)."""
    yield
    obs.disable()


@pytest.fixture
def ring():
    """An enabled observer with an in-memory ring, torn down after."""
    observer = obs.enable(ring=65536)
    try:
        yield observer.sinks[0]
    finally:
        obs.disable()


def _dicts(results):
    return [r.to_dict() for r in results]


def always(kind, match, **kwargs):
    """A rule that fires on every attempt of the matching units."""
    return FaultRule(kind=kind, match=match, attempts=10**6, **kwargs)


def _node_events(queue):
    """Every event journaled by worker nodes, across all node logs."""
    events = []
    for path in sorted(queue.events_dir.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                events.append(json.loads(line))
    return events


# ---------------------------------------------------------------------------
# The result cache nodes share


def _hammer(directory, spec_dict, result_dict, rounds):
    """Worker for concurrent-writer tests (module-level: picklable)."""
    from repro.runtime.spec import WorkloadSpec

    cache = ResultCache(directory)
    spec = WorkloadSpec.from_dict(spec_dict)
    result = WorkloadResult.from_dict(result_dict)
    for _ in range(rounds):
        cache.put(spec, result)


def _hammer_corrupting(directory, spec_dict, result_dict, rounds):
    """Worker that interleaves puts, corruption, and self-healing reads."""
    from repro.runtime.spec import WorkloadSpec

    cache = ResultCache(directory)
    spec = WorkloadSpec.from_dict(spec_dict)
    result = WorkloadResult.from_dict(result_dict)
    for index in range(rounds):
        path = cache.put(spec, result)
        if index % 3 == 0:
            try:
                path.write_text("{torn-mid-write")
            except OSError:
                pass
        cache.get(spec)  # must never raise; heals corrupt entries


class TestSharedResultCache:
    def test_concurrent_writers_same_entry(self, tmp_path, small_plan,
                                           serial_results):
        # Four processes hammering one digest: the entry must always
        # parse (atomic replace) and no staged .tmp may survive.
        directory = tmp_path / "cache"
        spec = small_plan[0]
        with cf.ProcessPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_hammer, str(directory),
                                   spec.to_dict(),
                                   serial_results[0].to_dict(), 25)
                       for _ in range(4)]
            for future in futures:
                future.result(timeout=60)
        cache = ResultCache(directory)
        entries = list(directory.glob("*.json"))
        assert len(entries) == 1
        json.loads(entries[0].read_text())
        assert not list(directory.glob("*.tmp"))
        assert cache.get(spec).to_dict() == serial_results[0].to_dict()

    def test_concurrent_writers_distinct_entries(self, tmp_path, small_plan,
                                                 serial_results):
        # One process per unit, each writing its own entry: all entries
        # present and intact.
        directory = tmp_path / "cache"
        with cf.ProcessPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_hammer, str(directory),
                                   spec.to_dict(), result.to_dict(), 10)
                       for spec, result in zip(small_plan, serial_results)]
            for future in futures:
                future.result(timeout=60)
        cache = ResultCache(directory)
        assert len(cache) == len(small_plan)
        for spec, result in zip(small_plan, serial_results):
            assert cache.get(spec).to_dict() == result.to_dict()

    def test_corrupt_entries_self_heal_under_contention(
            self, tmp_path, small_plan, serial_results):
        # Writers and corrupters race on one digest; reads never raise,
        # and once the dust settles a final put/get round-trips.
        directory = tmp_path / "cache"
        spec = small_plan[0]
        with cf.ProcessPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(_hammer_corrupting, str(directory),
                                   spec.to_dict(),
                                   serial_results[0].to_dict(), 20)
                       for _ in range(3)]
            for future in futures:
                future.result(timeout=60)
        cache = ResultCache(directory)
        cache.put(spec, serial_results[0])
        assert cache.get(spec).to_dict() == serial_results[0].to_dict()
        assert not list(directory.glob("*.tmp"))


# ---------------------------------------------------------------------------
# Work queue protocol


class TestWorkQueue:
    @pytest.fixture
    def queue(self, tmp_path):
        return WorkQueue(tmp_path / "queue", lease_ttl=30.0)

    def test_seed_is_idempotent(self, queue, small_plan):
        first = queue.seed(small_plan)
        assert first == {"units": len(small_plan), "skipped": 0}
        again = queue.seed(small_plan)
        assert again == {"units": 0, "skipped": len(small_plan)}
        assert queue.digests() == sorted(s.digest() for s in small_plan)

    def test_claims_are_exclusive_per_unit(self, queue, small_plan):
        queue.seed(small_plan)
        claimed = set()
        for node in ("a", "b", "c", "d"):
            spec, attempt = queue.claim(node)
            assert attempt == 1
            claimed.add(spec.digest())
        assert len(claimed) == len(small_plan)
        assert queue.claim("e") is None      # everything leased
        assert not queue.drained()           # leased, not done

    def test_renew_and_release(self, queue, small_plan):
        queue.seed(small_plan)
        spec, _ = queue.claim("a")
        digest = spec.digest()
        before = queue.lease(digest)["heartbeat"]
        time.sleep(0.01)
        assert queue.renew(digest, "a")
        assert queue.lease(digest)["heartbeat"] > before
        assert not queue.renew(digest, "b")  # not the holder
        queue.release(digest, "a")
        assert queue.lease(digest) is None
        assert not queue.renew(digest, "a")  # nothing to renew

    def test_ttl_expiry_charges_attempt_and_next_claim_steals(
            self, queue, small_plan, ring):
        queue.seed([small_plan[0]])
        spec, attempt = queue.claim("a")
        digest = spec.digest()
        assert attempt == 1
        # Nothing is stale yet; then jump past the TTL via `now`.
        assert queue.reclaim_expired() == []
        expired = queue.reclaim_expired(now=time.time() + 31.0)
        assert [lease["reason"] for lease in expired] == ["ttl"]
        record = queue.unit_record(digest)
        assert record["attempts"] == 1
        assert record["last_node"] == "a"
        spec2, attempt2 = queue.claim("b")
        assert spec2.digest() == digest
        assert attempt2 == 2
        steals = ring.events("lease.steal")
        assert len(steals) == 1
        assert steals[0].data["node"] == "b"
        assert steals[0].data["from_node"] == "a"

    def test_known_dead_node_reclaims_without_ttl_wait(self, queue,
                                                       small_plan, ring):
        queue.seed([small_plan[0]])
        spec, _ = queue.claim("a")
        expired = queue.reclaim_expired(dead_nodes=["a"])
        assert [lease["reason"] for lease in expired] == ["node-death"]
        assert queue.lease(spec.digest()) is None
        assert ring.events("lease.expire")[0].data["reason"] == "node-death"

    def test_completion_is_exclusive_and_absorbs_duplicates(
            self, queue, small_plan, ring):
        queue.seed([small_plan[0]])
        spec, _ = queue.claim("a")
        digest = spec.digest()
        assert queue.complete(digest, "a", "ok", 1, label=spec.label)
        # A stalled node finishing late loses the marker race.
        assert not queue.complete(digest, "b", "ok", 2, label=spec.label)
        assert queue.outcome(digest)["node"] == "a"
        assert queue.lease(digest) is None
        duplicates = ring.events("unit.duplicate")
        assert len(duplicates) == 1 and duplicates[0].data["node"] == "b"
        assert queue.drained()

    def test_injected_duplicate_claim_races_to_the_marker(
            self, queue, small_plan, ring):
        queue.seed([small_plan[0]])
        spec, _ = queue.claim("a")
        digest = spec.digest()
        injector = FaultInjector(rules=(always("duplicate-claim", "*"),))
        # Without the injected race, the live lease blocks the claim.
        assert queue.claim("b") is None
        dup_spec, _ = queue.claim("b", injector=injector)
        assert dup_spec.digest() == digest
        # Both "executions" finish; exactly one completion wins.
        assert queue.complete(digest, "b", "ok", 1, label=spec.label)
        assert not queue.complete(digest, "a", "ok", 1, label=spec.label)
        assert queue.outcome(digest)["node"] == "b"

    def test_requeue_reopens_and_charges(self, queue, small_plan):
        queue.seed([small_plan[0]])
        spec, attempt = queue.claim("a")
        digest = spec.digest()
        queue.complete(digest, "a", "ok", attempt, label=spec.label)
        assert queue.drained()
        queue.requeue(digest, charge_attempt=attempt)
        assert not queue.drained()
        assert queue.outcome(digest) is None
        # The torn attempt was charged: the redo is attempt 2.
        _, attempt2 = queue.claim("b")
        assert attempt2 == 2

    def test_claim_corrects_stale_attempt_from_reclaim_race(
            self, queue, small_plan, monkeypatch):
        # The claim/reclaim race: a worker reads the unit record before
        # the coordinator charges an expired attempt, then wins the
        # lease after the stale lease is unlinked.  The claim must
        # re-read and correct its attempt — otherwise a deterministic
        # first-attempt-only kill rule re-fires on every redo.
        queue.seed([small_plan[0]])
        queue.claim("a")
        queue.reclaim_expired(dead_nodes=["a"])  # charges attempt 1
        digest = small_plan[0].digest()
        real = WorkQueue.unit_record
        state = {"first": True}

        def stale_then_real(self, wanted):
            record = real(self, wanted)
            if state["first"] and wanted == digest:
                state["first"] = False
                record = dict(record, attempts=0)  # pre-charge snapshot
            return record

        monkeypatch.setattr(WorkQueue, "unit_record", stale_then_real)
        spec, attempt = queue.claim("b")
        assert spec.digest() == digest
        assert attempt == 2
        assert queue.lease(digest)["attempt"] == 2

    def test_wall_clock_jump_forward_does_not_mass_expire(
            self, queue, small_plan):
        # Regression: heartbeats compared with time.time() meant a
        # forward NTP step aged every live lease past its TTL at once.
        # Same-boot expiry now runs on the monotonic stamps, so only
        # the wall clock moving (now) with monotonic held still
        # (now_mono) must leave healthy leases alone.
        queue.seed(small_plan)
        for node in ("a", "b", "c", "d"):
            queue.claim(node)
        expired = queue.reclaim_expired(now=time.time() + 3600.0,
                                        now_mono=time.monotonic())
        assert expired == []
        assert queue.claim("e") is None  # all leases still held

    def test_wall_clock_jump_backward_does_not_immortalize(
            self, queue, small_plan):
        # The mirror failure: a backward step made heartbeat ages
        # negative forever, so a dead node's lease never expired.
        queue.seed([small_plan[0]])
        spec, _ = queue.claim("a")
        expired = queue.reclaim_expired(now=time.time() - 3600.0,
                                        now_mono=time.monotonic() + 31.0)
        assert [lease["reason"] for lease in expired] == ["ttl"]
        spec2, attempt2 = queue.claim("b")
        assert spec2.digest() == spec.digest()
        assert attempt2 == 2

    def test_foreign_boot_lease_falls_back_to_wall_clock(
            self, queue, small_plan):
        # A lease stamped on another boot/machine has no comparable
        # monotonic clock; its age must come from the wall heartbeat.
        queue.seed([small_plan[0]])
        spec, _ = queue.claim("a")
        digest = spec.digest()
        lease_path = queue.leases_dir / f"{digest}.json"
        lease = json.loads(lease_path.read_text())
        lease["boot"] = "not-this-boot"
        lease_path.write_text(json.dumps(lease))
        # Monotonic says fresh, but the foreign lease ages on the wall
        # clock, which is past the TTL.
        expired = queue.reclaim_expired(now=time.time() + 31.0,
                                        now_mono=time.monotonic())
        assert [entry["reason"] for entry in expired] == ["ttl"]


# ---------------------------------------------------------------------------
# Work-queue readers fail closed on any persisted bytes

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=3)),
    max_leaves=6)

_FIELDS = ("digest", "label", "spec", "attempts", "seq", "last_node",
           "node", "attempt", "heartbeat", "heartbeat_mono", "claimed_mono",
           "boot", "ttl", "status", "failure")


def _base_record(kind, spec):
    digest = spec.digest()
    if kind == "units":
        return {"digest": digest, "label": spec.label,
                "spec": spec.to_dict(), "attempts": 0}
    if kind == "leases":
        return {"digest": digest, "label": spec.label, "node": "a",
                "attempt": 1,
                "heartbeat": time.time(), "heartbeat_mono": time.monotonic(),
                "claimed_mono": time.monotonic(), "boot": "", "ttl": 30.0}
    return {"digest": digest, "label": spec.label, "node": "a",
            "status": "ok", "attempt": 1}


class TestWorkQueueFailsClosed:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["units", "leases", "done"]),
           whole=st.booleans(), payload=_JSON,
           patch=st.dictionaries(st.sampled_from(_FIELDS), _JSON,
                                 max_size=3),
           drop=st.sets(st.sampled_from(_FIELDS), max_size=2))
    def test_any_json_record_proceeds_or_fails_its_unit(
            self, small_plan, serial_results, kind, whole, payload, patch,
            drop):
        specs = list(small_plan)[:2]
        with tempfile.TemporaryDirectory() as tmp:
            queue = WorkQueue(Path(tmp) / "queue", lease_ttl=30.0)
            queue.seed(specs)
            target = specs[0]
            path = getattr(queue, f"{kind}_dir") / f"{target.digest()}.json"
            if whole:
                record = payload
            else:
                record = _base_record(kind, target)
                record.update(patch)
                for key in drop:
                    record.pop(key, None)
            if kind == "done":
                queue.result_cache().put(target, serial_results[0])
            path.write_text(json.dumps(record))

            # Drive every reader: expire, claim and finish what is
            # claimable, expire again, read every outcome.
            queue.reclaim_expired(dead_nodes=["a"])
            while (claimed := queue.claim("b")) is not None:
                spec, attempt = claimed
                queue.complete(spec.digest(), "b", "ok", attempt,
                               label=spec.label)
            queue.reclaim_expired(dead_nodes=["a", "b"])
            for spec in specs:
                outcome = queue.outcome(spec.digest())
                if outcome is None:
                    continue
                assert outcome["status"] in ("ok", "failed")
                assert isinstance(outcome["attempt"], int)
                if outcome["status"] == "failed":
                    failure = UnitFailure.from_dict(outcome["failure"])
                    assert spec is target
                    if failure.exception == "CorruptRecordError":
                        assert str(path) in failure.message
            # The untouched unit always completes.
            assert queue.outcome(specs[1].digest())["status"] == "ok"

    def test_corrupt_unit_record_fails_its_unit_naming_the_file(
            self, tmp_path, small_plan):
        queue = WorkQueue(tmp_path / "queue")
        queue.seed([small_plan[0]])
        digest = small_plan[0].digest()
        path = queue.units_dir / f"{digest}.json"
        record = json.loads(path.read_text())
        path.write_text(json.dumps(dict(record, attempts="x")))
        assert queue.claim("a") is None
        outcome = queue.outcome(digest)
        failure = UnitFailure.from_dict(outcome["failure"])
        assert failure.exception == "CorruptRecordError"
        assert str(path) in failure.message and "attempts" in failure.message
        # Seeding again repairs the record from the caller's own spec.
        queue.requeue(digest)
        assert queue.seed([small_plan[0]]) == {"units": 1, "skipped": 0}
        assert queue.claim("a") == (small_plan[0], 1)

    def test_unparseable_lease_is_dropped_not_raised(self, tmp_path,
                                                     small_plan, ring):
        queue = WorkQueue(tmp_path / "queue")
        queue.seed([small_plan[0]])
        spec, _ = queue.claim("a")
        path = queue.leases_dir / f"{spec.digest()}.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()),
                                        heartbeat_mono="soon")))
        assert queue.reclaim_expired() == []
        assert not path.exists()
        (expire,) = ring.events("lease.expire")
        assert expire.data["reason"] == "corrupt"
        assert expire.data["label"] is None
        assert queue.claim("b") == (spec, 1)  # no attempt was charged


# ---------------------------------------------------------------------------
# Backend registry


class TestBackendRegistry:
    def test_names_resolve_to_executor_types(self, tmp_path):
        assert BACKENDS == ("auto", "serial", "process")
        assert isinstance(make_backend("serial"), SerialExecutor)
        process = make_backend("process", jobs=2)
        assert isinstance(process, MultiNodeExecutor)
        assert process.nodes == 2 and process.queue_dir is None
        named = make_backend("process", jobs=3, queue_dir=tmp_path / "q",
                             lease_ttl=5.0)
        assert isinstance(named, MultiNodeExecutor)
        assert named.nodes == 3 and named.lease_ttl == 5.0
        assert named.queue_dir == tmp_path / "q"
        assert isinstance(make_backend("auto", jobs=1), SerialExecutor)
        auto = make_backend("auto", jobs=4)
        assert isinstance(auto, MultiNodeExecutor) and auto.nodes == 4

    def test_auto_runs_nodes_over_a_named_queue(self, tmp_path):
        # A queue directory selects the lease executor even at jobs 1;
        # the serial backend refuses one instead of ignoring it.
        auto = make_backend("auto", jobs=1, queue_dir=tmp_path / "q")
        assert isinstance(auto, MultiNodeExecutor)
        assert auto.nodes == 1 and auto.queue_dir == tmp_path / "q"
        with pytest.raises(ValueError, match="queue_dir"):
            make_backend("serial", queue_dir=tmp_path / "q")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("carrier-pigeon")

    def test_multinode_validates_shape(self):
        with pytest.raises(ValueError, match="nodes"):
            MultiNodeExecutor(nodes=0)


# ---------------------------------------------------------------------------
# The multi-node executor


class TestMultiNodeExecutor:
    def test_matches_serial_bit_for_bit(self, tmp_path, small_plan,
                                        serial_results):
        executor = MultiNodeExecutor(nodes=2, queue_dir=tmp_path / "queue",
                                     lease_ttl=10.0)
        outcomes = dict(executor.run(list(small_plan)))
        ordered = [outcomes[i] for i in range(len(small_plan))]
        assert _dicts(ordered) == _dicts(serial_results)

    def test_private_queue_dir_cleaned_after_clean_drain(self, small_plan,
                                                         serial_results):
        executor = MultiNodeExecutor(nodes=2, lease_ttl=10.0)
        outcomes = dict(executor.run(list(small_plan)))
        assert _dicts([outcomes[i] for i in range(len(small_plan))]) \
            == _dicts(serial_results)

    def test_private_queue_forgets_units_and_survives_interrupts(
            self, small_plan, serial_results):
        # A long-lived executor's private queue keeps nothing of the
        # units it served, and an interrupted run (a hung unit's node
        # killed on generator close) leaves the executor usable.
        injector = FaultInjector(rules=(always("timeout", "DCT/CC",
                                               hang=60.0),))
        specs = list(small_plan)
        with make_backend("process", jobs=2, injector=injector) as executor:
            queue = executor._queue
            stream = executor.run(specs)
            position, outcome = next(stream)
            assert outcome.ok
            stream.close()
            assert queue.digests() == [] and queue.leases() == []
            rest = [0, 2, 3]
            outcomes = dict(executor.run([specs[i] for i in rest]))
            assert _dicts([outcomes[i] for i in range(3)]) == \
                _dicts([serial_results[i] for i in rest])
            assert queue.digests() == [] and not queue.done_digests()
            assert len(queue.result_cache()) == 0
        assert not queue.directory.exists()
        assert not multiprocessing.active_children()

    def test_restart_budget_resets_per_run(self, small_plan,
                                           serial_results, tmp_path,
                                           monkeypatch):
        # One restart per run: each run's crash spends it, and the
        # retried attempt still runs on a node, not inline in the
        # coordinator — a long-lived executor must not degrade for good.
        log = tmp_path / "pids"
        real = executor_module.execute_spec

        def recording(spec):
            with log.open("a") as handle:
                handle.write(f"{os.getpid()}\n")
            return real(spec)

        monkeypatch.setattr(executor_module, "execute_spec", recording)
        monkeypatch.setattr(coordinator_module, "NODE_RESTARTS", 1)
        injector = FaultInjector(rules=(FaultRule(
            kind="crash", match="DCT/*", attempts=1),))
        with MultiNodeExecutor(nodes=1, injector=injector) as executor:
            (_, first), = executor.run([small_plan[0]])
            (_, second), = executor.run([small_plan[1]])
        assert _dicts([first, second]) == _dicts(serial_results[:2])
        pids = log.read_text().split()
        assert len(pids) == 2 and str(os.getpid()) not in pids

    def test_torn_cache_write_is_detected_and_redone(self, tmp_path,
                                                     small_plan,
                                                     serial_results, ring):
        # First publication of DCT/PR tears on disk; the coordinator
        # must treat the 'ok' marker as hollow, reopen the unit, and
        # get a clean result on the charged second attempt.
        injector = FaultInjector(rules=(
            FaultRule(kind="torn-cache-write", match="DCT/PR",
                      attempts=1),))
        executor = MultiNodeExecutor(nodes=2, injector=injector,
                                     queue_dir=tmp_path / "queue",
                                     lease_ttl=10.0)
        outcomes = dict(executor.run(list(small_plan)))
        ordered = [outcomes[i] for i in range(len(small_plan))]
        assert _dicts(ordered) == _dicts(serial_results)
        retried = [event for event in ring.events("unit.retried")
                   if event.data.get("cause") == "torn-result"]
        assert len(retried) == 1
        # The healed entry round-trips from the shared cache.
        cache = WorkQueue(tmp_path / "queue").result_cache()
        assert cache.get(small_plan[0]).to_dict() \
            == serial_results[0].to_dict()

    def test_node_results_are_not_cache_hits(self, tmp_path, small_plan,
                                            serial_results, ring):
        # Collecting a node's result is not a lookup in the caller's
        # cache: a fresh parallel run counts one miss and one store per
        # unit and no hit.  A torn node result is still requeued.
        observer = obs.OBSERVER
        injector = FaultInjector(rules=(
            FaultRule(kind="torn-cache-write", match="DCT/PR",
                      attempts=1),))
        cache = ResultCache(tmp_path / "cache")
        results = run_plan(small_plan, jobs=2, cache=cache, injector=injector)
        assert _dicts(results) == _dicts(serial_results)
        units = len(small_plan)
        assert cache.hits == 0
        assert cache.misses == cache.stores == units
        assert observer.metrics.counter("cache.hits").value == 0
        assert observer.metrics.counter("cache.misses").value == units
        assert ring.events("cache.hit") == []
        retried = [event for event in ring.events("unit.retried")
                   if event.data.get("cause") == "torn-result"]
        assert len(retried) == 1

    def test_node_killing_unit_is_quarantined(self, tmp_path, small_plan,
                                              serial_results, ring,
                                              monkeypatch):
        # DCT/PR SIGKILLs every node that touches it.  With a 2-attempt
        # budget the coordinator must declare it crashed (quarantined)
        # instead of feeding it nodes forever — and the other units
        # still complete.
        injector = FaultInjector(rules=(always("node-kill", "DCT/PR"),))
        monkeypatch.setattr(coordinator_module, "NODE_RESTARTS", 3)
        executor = MultiNodeExecutor(
            nodes=1, policy=RetryPolicy(max_attempts=2),
            injector=injector, queue_dir=tmp_path / "queue",
            lease_ttl=10.0)
        outcomes = dict(executor.run(list(small_plan)))
        poisoned = outcomes[0]
        assert isinstance(poisoned, UnitFailure)
        assert poisoned.kind == "crash"
        assert poisoned.quarantined
        assert poisoned.attempts == 2
        assert "NodeDeath" in poisoned.exception
        survivors = [outcomes[i] for i in range(1, len(small_plan))]
        assert _dicts(survivors) == _dicts(serial_results[1:])
        assert len(ring.events("unit.quarantined")) == 1
        # Two incarnations died carrying the unit.
        crash_leaves = [event for event in ring.events("node.leave")
                        if event.data["reason"] == "crash"]
        assert len(crash_leaves) == 2

    def test_exhausted_fleet_drains_inline(self, tmp_path, small_plan,
                                           serial_results, ring,
                                           monkeypatch):
        # Every unit kills its node and there is no restart budget: the
        # fleet dies instantly, yet the sweep must still terminate with
        # every slot filled — the coordinator strips node-kill rules and
        # finishes the work itself.
        injector = FaultInjector(rules=(
            FaultRule(kind="node-kill", match="*", attempts=1),))
        monkeypatch.setattr(coordinator_module, "NODE_RESTARTS", 0)
        executor = MultiNodeExecutor(nodes=1, injector=injector,
                                     queue_dir=tmp_path / "queue",
                                     lease_ttl=10.0)
        outcomes = dict(executor.run(list(small_plan)))
        ordered = [outcomes[i] for i in range(len(small_plan))]
        assert _dicts(ordered) == _dicts(serial_results)
        leaves = [event.data["reason"]
                  for event in ring.events("node.leave")]
        assert "quarantined" in leaves

    def test_heartbeat_stall_gets_unit_stolen(self, tmp_path, small_plan,
                                              serial_results, ring):
        # A node freezes renewals on DCT/PR for longer than the TTL:
        # the coordinator expires the lease and the other node steals
        # and finishes the unit while the stalled one is still asleep.
        injector = FaultInjector(rules=(
            FaultRule(kind="heartbeat-stall", match="DCT/PR",
                      attempts=1, hang=2.0),))
        executor = MultiNodeExecutor(nodes=2, injector=injector,
                                     queue_dir=tmp_path / "queue",
                                     lease_ttl=0.3, poll=0.02)
        outcomes = dict(executor.run(list(small_plan)))
        ordered = [outcomes[i] for i in range(len(small_plan))]
        assert _dicts(ordered) == _dicts(serial_results)
        expires = ring.events("lease.expire")
        assert [(event.data["reason"], event.data["label"])
                for event in expires] == [("ttl", "DCT/PR")]
        queue = WorkQueue(tmp_path / "queue")
        steals = [event for event in _node_events(queue)
                  if event["kind"] == "lease.steal"]
        assert len(steals) == 1
        assert steals[0]["label"] == "DCT/PR"


# ---------------------------------------------------------------------------
# The chaos acceptance test: kill a node mid-sweep, resume, account


class TestChaosAcceptance:
    def test_interrupted_sweep_resumes_bit_identical_with_zero_resim(
            self, tmp_path, small_plan, serial_results, ring):
        queue_dir = tmp_path / "queue"
        user_cache = ResultCache(tmp_path / "user-cache")
        injector = FaultInjector(rules=(
            FaultRule(kind="node-kill", match="RAJ/CC", attempts=1),))

        # Phase A: a two-node sweep; the node holding RAJ/CC is
        # SIGKILLed mid-unit, its lease is reclaimed, a restarted
        # incarnation steals the unit, and the sweep completes.
        executor = MultiNodeExecutor(nodes=2, injector=injector,
                                     queue_dir=queue_dir, lease_ttl=10.0)
        results = run_plan(small_plan, executor=executor, cache=user_cache)
        assert _dicts(results) == _dicts(serial_results)

        queue = WorkQueue(queue_dir)
        worker_events = _node_events(queue)
        claims = [e for e in worker_events if e["kind"] == "lease.claim"]
        steals = [e for e in worker_events if e["kind"] == "lease.steal"]
        expires = ring.events("lease.expire")

        # The event log accounts for every claim/expiry/steal: each
        # claim either produced the unit's one completion marker or
        # died with the lease (no duplicates in the kill scenario).
        assert len(expires) == 1
        assert expires[0].data["reason"] == "node-death"
        assert expires[0].data["label"] == "RAJ/CC"
        assert len(claims) == len(small_plan) + len(expires)
        assert len(steals) == 1
        assert steals[0]["label"] == "RAJ/CC"
        assert steals[0]["from_node"] == expires[0].data["node"]
        assert {e["digest"] for e in claims} \
            == {spec.digest() for spec in small_plan}

        # The done markers cover every unit, with per-node provenance.
        for spec in small_plan:
            marker = queue.outcome(spec.digest())
            assert marker["status"] == "ok" and marker["node"]

        # Phase B: resume by running the same plan against the same
        # cache and queue.  Every unit restores from the cache; none
        # re-enters a worker.
        assert ring.events("unit.cached") == []
        executor = MultiNodeExecutor(nodes=2, queue_dir=queue_dir,
                                     lease_ttl=10.0)
        restored = run_plan(small_plan, executor=executor, cache=user_cache)
        assert _dicts(restored) == _dicts(serial_results)
        assert [e.data["digest"] for e in ring.events("unit.cached")] \
            == [spec.digest() for spec in small_plan]
        # Zero new lease claims in the workers' event logs.
        assert len([e for e in _node_events(queue)
                    if e["kind"] == "lease.claim"]) == len(claims)


# ---------------------------------------------------------------------------
# CLI: worker command, multinode sweep, re-run as resume


class TestCLI:
    def test_worker_drains_a_seeded_queue(self, tmp_path, small_plan,
                                          serial_results, capsys):
        queue = WorkQueue(tmp_path / "queue")
        queue.seed([small_plan[0]])
        assert main(["worker", str(tmp_path / "queue"),
                     "--node", "cli-node", "--events"]) == 0
        out = capsys.readouterr().out
        assert "cli-node: processed 1 unit(s)" in out
        assert queue.drained()
        assert queue.result_cache().get(small_plan[0]).to_dict() \
            == serial_results[0].to_dict()
        kinds = [event["kind"] for event in _node_events(queue)]
        assert "lease.claim" in kinds
        marker = queue.outcome(small_plan[0].digest())
        assert marker["status"] == "ok" and marker["node"] == "cli-node"

    def test_sweep_jobs_over_a_named_queue(self, tmp_path, capsys):
        # Under the default auto backend, --queue-dir and --lease-ttl
        # reach the nodes: the named queue holds every unit's marker.
        from repro.harness.sweep import plan_sweep

        queue_dir = tmp_path / "queue"
        assert main(["sweep", "--graphs", "DCT", "--apps", "PR",
                     "--iters", "1", "--no-cache", "--jobs", "2",
                     "--queue-dir", str(queue_dir),
                     "--lease-ttl", "10"]) == 0
        out = capsys.readouterr().out
        assert "Sweep summary" in out
        plan, _ = plan_sweep(("DCT",), ("PR",), max_iters=1)
        queue = WorkQueue(queue_dir)
        assert queue.done_digests() == {spec.digest() for spec in plan}
        for spec in plan:
            marker = queue.outcome(spec.digest())
            assert marker["status"] == "ok" and marker["node"]

    def test_sweep_rerun_on_same_cache_simulates_nothing(
            self, tmp_path, capsys, monkeypatch):
        # Resuming is re-running the same command against the same
        # cache: every completed unit prints (cached) and none is
        # simulated.  A fresh cache restores nothing and simulates all.
        simulated = []
        real = executor_module.execute_spec

        def counting(spec):
            simulated.append(spec.label)
            return real(spec)

        monkeypatch.setattr(executor_module, "execute_spec", counting)
        argv = ["sweep", "--graphs", "DCT", "--apps", "PR,CC",
                "--iters", "1"]
        first = tmp_path / "c1"
        assert main(argv + ["--cache-dir", str(first)]) == 0
        assert sorted(simulated) == ["DCT/CC", "DCT/PR"]
        capsys.readouterr()

        simulated.clear()
        assert main(argv + ["--cache-dir", str(first)]) == 0
        out = capsys.readouterr().out
        assert simulated == []
        assert "DCT/PR (cached)" in out and "DCT/CC (cached)" in out

        assert main(argv + ["--cache-dir", str(tmp_path / "c2")]) == 0
        out = capsys.readouterr().out
        assert sorted(simulated) == ["DCT/CC", "DCT/PR"]
        assert "(cached)" not in out
