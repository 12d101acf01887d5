"""Fault-tolerance tests: retries, timeouts, failure records, injection.

Exercises every recovery path deterministically via the seeded
FaultInjector: transient exceptions retried to success, worker crashes
(real ``os._exit`` in worker nodes) survived by node respawn, hung
nodes killed at per-attempt deadlines, corrupt cache entries healed,
keep-going vs fail-fast semantics, and resuming by re-running against
the same cache.
"""

import logging
import multiprocessing
import time

import pytest

from repro.harness.runner import WorkloadResult
from repro.harness.sweep import run_sweep
from repro.runtime import (
    ExecutionPlan,
    FaultInjector,
    FaultRule,
    InjectedCrashError,
    InjectedTransientError,
    NodeWorker,
    ResultCache,
    RetryPolicy,
    UnitExecutionError,
    UnitFailure,
    UnitTimeoutError,
    WorkQueue,
    failure_kind,
    make_backend,
    run_plan,
    run_unit,
)
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


def _dicts(results):
    return [r.to_dict() for r in results]


def always(kind, match, **kwargs):
    """A rule that fires on every attempt of the matching units."""
    return FaultRule(kind=kind, match=match, attempts=10**6, **kwargs)


def _no_sleep(seconds):
    raise AssertionError(f"retry slept {seconds}s")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=0.0)

    def test_retry_starts_at_once(self, small_plan, monkeypatch):
        # Units are deterministic simulations with no shared service
        # behind them: a retry has nothing to wait out.
        injector = FaultInjector(rules=(FaultRule(
            kind="transient", match="*", attempts=1),))
        sentinel = object()
        monkeypatch.setattr(executor_module.time, "sleep", _no_sleep)
        outcome = run_unit(small_plan[0], policy=RetryPolicy(),
                           injector=injector, execute=lambda s: sentinel)
        assert outcome is sentinel

    def test_node_retry_starts_at_once(self, tmp_path, small_plan,
                                       serial_results, monkeypatch):
        # A node claiming a unit with one charged attempt runs attempt 2
        # straight away.
        spec = small_plan[0]
        queue = WorkQueue(tmp_path / "queue")
        queue.seed([spec])
        injector = FaultInjector(rules=(FaultRule(
            kind="transient", match="*", attempts=1),))
        worker = NodeWorker(queue, "node-0", injector=injector)
        assert worker.step() == "ran"
        assert queue.unit_record(spec.digest())["attempts"] == 1
        monkeypatch.setattr(executor_module, "execute_spec",
                            lambda s: serial_results[0])
        monkeypatch.setattr(executor_module.time, "sleep", _no_sleep)
        assert worker.step() == "ran"
        done = queue.outcome(spec.digest())
        assert (done["status"], done["attempt"]) == ("ok", 2)


class TestFailureRecords:
    def test_kind_classification(self):
        assert failure_kind(InjectedCrashError("boom")) == "crash"
        assert failure_kind(UnitTimeoutError("slow")) == "timeout"
        assert failure_kind(TimeoutError()) == "timeout"
        assert failure_kind(ValueError("other")) == "error"

    def test_from_exception_and_roundtrip(self, small_plan):
        spec = small_plan[0]
        try:
            raise InjectedTransientError("flaky")
        except InjectedTransientError as exc:
            failure = UnitFailure.from_exception(
                spec, exc, attempts=3, elapsed=1.25)
        assert failure.digest == spec.digest()
        assert failure.label == spec.label
        assert failure.kind == "error"
        assert failure.attempts == 3
        assert failure.exception == "InjectedTransientError"
        assert failure.message == "flaky"
        assert "InjectedTransientError" in failure.traceback
        assert not failure.ok
        assert not failure.quarantined
        clone = UnitFailure.from_dict(failure.to_dict())
        assert clone == failure

    def test_crash_failures_are_quarantined(self, small_plan):
        failure = UnitFailure.from_exception(
            small_plan[0], InjectedCrashError("boom"), attempts=2,
            elapsed=0.5)
        assert failure.kind == "crash"
        assert failure.quarantined

    def test_execution_error_wraps_failure(self, small_plan):
        failure = UnitFailure.from_exception(
            small_plan[0], ValueError("nope"), attempts=2, elapsed=0.1)
        error = UnitExecutionError(failure)
        assert error.failure is failure
        assert "after 2 attempt(s)" in str(error)
        assert "ValueError" in str(error)


class TestFaultInjector:
    def test_rule_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(kind="meteor")
        with pytest.raises(ValueError, match="probability"):
            FaultRule(kind="crash", probability=2.0)
        with pytest.raises(ValueError, match="attempts"):
            FaultRule(kind="crash", attempts=0)

    def test_match_by_label_and_digest_prefix(self, small_plan):
        spec = small_plan[0]
        by_label = FaultInjector(rules=(FaultRule(
            kind="transient", match=spec.label),))
        by_glob = FaultInjector(rules=(FaultRule(
            kind="transient", match="DCT/*"),))
        by_digest = FaultInjector(rules=(FaultRule(
            kind="transient", match=spec.digest()[:12]),))
        for injector in (by_label, by_glob, by_digest):
            assert injector.select(spec, 1) is not None
        other = small_plan[3]  # RAJ/CC
        assert by_label.select(other, 1) is None
        assert by_glob.select(other, 1) is None

    def test_attempt_window(self, small_plan):
        spec = small_plan[0]
        injector = FaultInjector(rules=(FaultRule(
            kind="transient", match="*", attempts=2),))
        assert injector.select(spec, 1) is not None
        assert injector.select(spec, 2) is not None
        assert injector.select(spec, 3) is None

    def test_probability_is_seeded_and_stateless(self, small_plan):
        injector = FaultInjector(rules=(FaultRule(
            kind="transient", match="*", attempts=10**6,
            probability=0.5),), seed=42)
        decisions = [injector.select(spec, attempt) is not None
                     for spec in small_plan for attempt in (1, 2, 3)]
        assert any(decisions) and not all(decisions)
        # Stateless: the same injector (also after a dict round-trip,
        # as when crossing a process boundary) decides identically.
        clone = FaultInjector.from_dict(injector.to_dict())
        assert decisions == [clone.select(spec, attempt) is not None
                             for spec in small_plan
                             for attempt in (1, 2, 3)]
        reseeded = FaultInjector(rules=injector.rules, seed=43)
        assert decisions != [reseeded.select(spec, attempt) is not None
                             for spec in small_plan
                             for attempt in (1, 2, 3)]

    def test_in_process_faults_raise(self, small_plan):
        spec = small_plan[0]
        crash = FaultInjector(rules=(always("crash", "*"),))
        with pytest.raises(InjectedCrashError):
            crash.before_execute(spec, 1, in_worker=False)
        transient = FaultInjector(rules=(always("transient", "*"),))
        with pytest.raises(InjectedTransientError):
            transient.before_execute(spec, 1, in_worker=False)
        hang = FaultInjector(rules=(always("timeout", "*", hang=0.01),))
        with pytest.raises(UnitTimeoutError):
            hang.before_execute(spec, 1, in_worker=False)

    def test_select_skips_corrupt_cache_rules(self, small_plan):
        injector = FaultInjector(rules=(always("corrupt-cache", "*"),))
        assert injector.select(small_plan[0], 1) is None
        injector.before_execute(small_plan[0], 1, in_worker=False)  # no-op


class TestSerialRecovery:
    def test_transient_fault_retried_to_success(self, small_plan):
        spec = small_plan[0]
        injector = FaultInjector(rules=(FaultRule(
            kind="transient", match="*", attempts=1),))
        calls = []
        sentinel = object()

        def execute(s):
            calls.append(s.label)
            return sentinel

        outcome = run_unit(spec, injector=injector, execute=execute)
        assert outcome is sentinel
        assert calls == [spec.label]  # attempt 1 died in the injector

    def test_persistent_fault_exhausts_budget(self, small_plan):
        spec = small_plan[0]
        injector = FaultInjector(rules=(always("transient", "*"),))
        outcome = run_unit(spec, injector=injector,
                           execute=lambda s: object())
        assert isinstance(outcome, UnitFailure)
        assert outcome.attempts == RetryPolicy().max_attempts
        assert outcome.kind == "error"
        assert outcome.exception == "InjectedTransientError"

    def test_post_hoc_overrun_keeps_result(self, small_plan):
        # Serial execution cannot be preempted, so an overrun is only
        # detected after the attempt already produced a valid result.
        # That result must be returned (the overrun is recorded as a
        # unit.overrun event), not discarded and re-simulated into a
        # UnitFailure.
        spec = small_plan[0]
        policy = RetryPolicy(max_attempts=2, timeout=0.005)
        calls = []

        class Result:
            pass

        def slow(s):
            calls.append(s.label)
            time.sleep(0.02)
            return Result()

        outcome = run_unit(spec, policy=policy, execute=slow)
        assert not isinstance(outcome, UnitFailure)
        assert isinstance(outcome, Result)
        assert calls == [spec.label]  # one attempt, no re-simulation

    def test_injected_hang_times_out_serially(self, small_plan):
        spec = small_plan[0]
        injector = FaultInjector(rules=(always("timeout", "*",
                                               hang=0.005),))
        outcome = run_unit(spec, injector=injector,
                           execute=lambda s: object())
        assert isinstance(outcome, UnitFailure)
        assert outcome.kind == "timeout"
        assert outcome.attempts == RetryPolicy().max_attempts

    def test_keep_going_yields_partial_results(self, small_plan,
                                               serial_results):
        injector = FaultInjector(rules=(always("transient", "DCT/PR"),))
        outcomes = run_plan(small_plan, jobs=1, injector=injector)
        assert isinstance(outcomes[0], UnitFailure)
        assert not outcomes[0].ok
        survivors = [outcome for outcome in outcomes if outcome.ok]
        assert _dicts(survivors) == _dicts(serial_results[1:])

    def test_fail_fast_raises(self, small_plan):
        injector = FaultInjector(rules=(always("transient", "DCT/PR"),))
        with pytest.raises(UnitExecutionError) as excinfo:
            run_plan(small_plan, jobs=1, injector=injector,
                     keep_going=False)
        assert excinfo.value.failure.label == "DCT/PR"
        assert excinfo.value.failure.attempts == RetryPolicy().max_attempts

    def test_cache_put_failure_logs_and_continues(self, small_plan,
                                                  tmp_path, monkeypatch,
                                                  caplog):
        cache = ResultCache(tmp_path / "cache")

        def broken_put(spec, result):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache, "put", broken_put)
        with caplog.at_level(logging.WARNING,
                             logger="repro.runtime.executor"):
            outcomes = run_plan([small_plan[0]], jobs=1, cache=cache)
        assert isinstance(outcomes[0], WorkloadResult)
        assert "result-cache write failed" in caplog.text

    def test_corrupt_cache_injection_recovers(self, small_plan, tmp_path):
        spec = small_plan[0]
        cache = ResultCache(tmp_path / "cache")
        injector = FaultInjector(rules=(always("corrupt-cache", "*"),))
        first = run_plan([spec], jobs=1, cache=cache, injector=injector)
        assert first[0].ok
        # The entry on disk is garbage; the next read heals it ...
        assert cache.get(spec) is None
        assert cache.corrupt == 1
        assert not cache.path_for(spec).exists()
        # ... and a clean re-run repopulates the cache.
        second = run_plan([spec], jobs=1, cache=cache)
        assert _dicts(second) == _dicts(first)
        assert cache.get(spec) is not None


class TestParallelRecovery:
    def test_worker_transient_faults_retry_bit_identical(
            self, small_plan, serial_results):
        injector = FaultInjector(rules=(FaultRule(
            kind="transient", match="*", attempts=1),))
        outcomes = run_plan(small_plan, jobs=2, injector=injector)
        assert _dicts(outcomes) == _dicts(serial_results)

    def test_worker_crash_respawns_pool(self, small_plan, serial_results):
        # DCT/CC's first attempt kills its node process with os._exit;
        # the coordinator must respawn the node and finish every unit.
        injector = FaultInjector(rules=(FaultRule(
            kind="crash", match="DCT/CC", attempts=1),))
        outcomes = run_plan(small_plan, jobs=2, injector=injector)
        assert _dicts(outcomes) == _dicts(serial_results)

    def test_poisoned_spec_is_quarantined(self, small_plan,
                                          serial_results):
        injector = FaultInjector(rules=(always("crash", "RAJ/CC"),))
        policy = RetryPolicy(max_attempts=2)
        outcomes = run_plan(small_plan, jobs=2, policy=policy,
                            injector=injector)
        failure = outcomes[3]
        assert isinstance(failure, UnitFailure)
        assert failure.kind == "crash"
        assert failure.quarantined
        assert failure.attempts == 2
        survivors = [outcome for outcome in outcomes if outcome.ok]
        assert _dicts(survivors) == _dicts(serial_results[:3])

    def test_crash_recycles_the_persistent_pool(self, small_plan,
                                                serial_results):
        # The first run's DCT/CC attempt kills its node; the executor
        # replaces that node in place and a second run on it succeeds.
        injector = FaultInjector(rules=(FaultRule(
            kind="crash", match="DCT/CC", attempts=1),))
        specs = list(small_plan)
        with make_backend("process", jobs=2, injector=injector) as executor:
            first = dict(executor.run(specs))
            second = dict(executor.run([specs[0], specs[2]]))
        assert _dicts([first[i] for i in range(4)]) == \
            _dicts(serial_results)
        assert _dicts([second[0], second[1]]) == \
            _dicts([serial_results[0], serial_results[2]])
        assert not multiprocessing.active_children()

    def test_hang_recycle_kills_workers_despite_inherited_handler(
            self, small_plan):
        # A node forked from a process that ignores SIGTERM (as the
        # serve daemon's asyncio handlers do) must still die when its
        # deadline passes, instead of sleeping out its hang.
        import signal

        injector = FaultInjector(rules=(always("timeout", "DCT/PR",
                                               hang=60.0),))
        policy = RetryPolicy(max_attempts=1, timeout=0.5)
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            with make_backend("process", jobs=1, policy=policy,
                              injector=injector) as executor:
                (_, outcome), = executor.run([small_plan[0]])
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert outcome.kind == "timeout"
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, "hung worker survived"
            time.sleep(0.05)

    def test_generator_close_reaps_hung_workers(self, small_plan):
        # DCT/CC hangs for a minute; closing the stream after the first
        # result must kill the hung node instead of leaking it.
        injector = FaultInjector(rules=(always("timeout", "DCT/CC",
                                               hang=60.0),))
        executor = make_backend(
            "process", jobs=2, policy=RetryPolicy(max_attempts=1),
            injector=injector)
        stream = executor.run(list(small_plan))
        position, outcome = next(stream)
        assert outcome.ok
        closed_at = time.monotonic()
        stream.close()
        assert time.monotonic() - closed_at < 10.0
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, "worker processes leaked"
            time.sleep(0.05)


class TestAcceptance:
    """The ISSUE's acceptance scenario, end to end."""

    def test_faulted_sweep_degrades_then_resumes(self, tmp_path,
                                                 monkeypatch):
        kwargs = dict(
            graphs=("DCT", "RAJ"),
            apps=("PR", "CC"),
            max_iters=2,
            scales=SMALL_SCALES,
        )
        # DCT/PR's worker always crashes; RAJ/CC's worker always hangs.
        injector = FaultInjector(rules=(
            always("crash", "DCT/PR"),
            always("timeout", "RAJ/CC", hang=30.0),
        ))
        policy = RetryPolicy(max_attempts=2, timeout=3.0)
        cache = ResultCache(tmp_path / "cache")

        sweep = run_sweep(jobs=2, cache=cache, policy=policy,
                          injector=injector, **kwargs)

        # Keep-going: exactly the non-failed rows, failures recorded.
        assert not sweep.complete
        assert {(row.graph, row.app) for row in sweep.rows} == {
            ("DCT", "CC"), ("RAJ", "PR")}
        assert len(sweep.failures) == 2
        kinds = {failure.label: failure.kind
                 for failure in sweep.failures}
        assert kinds == {"DCT/PR": "crash", "RAJ/CC": "timeout"}
        assert all(failure.attempts > 1 for failure in sweep.failures)

        # Re-run after the "faults are fixed" against the same cache:
        # the two completed units restore, and exactly the two failed
        # units simulate.
        calls = []
        real = executor_module.execute_spec

        def counting(spec):
            calls.append(spec.label)
            return real(spec)

        monkeypatch.setattr(executor_module, "execute_spec", counting)
        resumed = run_sweep(jobs=1, cache=cache, **kwargs)
        assert sorted(calls) == sorted(
            failure.label for failure in sweep.failures)
        assert resumed.complete
        assert len(resumed.rows) == 4
