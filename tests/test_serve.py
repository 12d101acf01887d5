"""Tests for ``repro.serve``: admission control, the daemon, the client.

The concurrency-sensitive guarantees from DESIGN §14 are exercised over
real sockets with a :class:`~repro.serve.ThreadedServer`: concurrent
identical cold requests coalesce onto one simulation, cache hits keep
flowing while admission control is saturated by cold work, both
transports (TCP and Unix-domain) round-trip digests and labels, and a
restarted daemon serves previously computed digests from the result
cache without re-simulating anything.  A warm hit costs the client one
spec encode and one socket write and the daemon no new task, and the
client fails closed on a response it cannot frame.
"""

import concurrent.futures as cf
import contextlib
import json
import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro import obs
from repro.runtime import ExecutionPlan
from repro.serve import (
    AdmissionController,
    ServeClient,
    ServeConfig,
    ServeError,
    ServeRejected,
    ServeUnavailable,
    ThreadedServer,
    TokenBucket,
    parse_endpoint,
)
from repro.sim.config import SystemConfig

SMALL_SCALES = {"DCT": 64, "RAJ": 32}
SMALL_SYSTEM = SystemConfig(
    num_sms=4,
    l1_bytes=1024,
    l2_bytes=16 * 1024,
    tb_size=64,
    max_tbs_per_sm=2,
    kernel_launch_cycles=100,
)


@pytest.fixture(scope="module")
def small_plan():
    return ExecutionPlan.for_sweep(
        ("DCT", "RAJ"), ("PR", "CC"),
        max_iters=2,
        scales=SMALL_SCALES,
        base_system=SMALL_SYSTEM,
    )


def _uds_config(tmp_path, **overrides):
    defaults = dict(uds=tmp_path / "serve.sock",
                    cache_dir=tmp_path / "cache")
    defaults.update(overrides)
    return ServeConfig(**defaults)


# ---------------------------------------------------------------------------
# Admission control (pure, fake-clock)


class _FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        for _ in range(4):
            ok, _wait = bucket.try_take()
            assert ok
        ok, wait = bucket.try_take()
        assert not ok
        assert wait == pytest.approx(0.5)  # 1 token at 2/s
        clock.now += 0.5
        ok, _wait = bucket.try_take()
        assert ok

    def test_refill_caps_at_burst(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        clock.now += 1000.0  # idle client must not bank unlimited credit
        for _ in range(3):
            assert bucket.try_take()[0]
        assert not bucket.try_take()[0]


class TestAdmissionController:
    def test_capacity_bound_and_release(self):
        clock = _FakeClock()
        control = AdmissionController(max_inflight_units=2,
                                      client_rate=100.0, client_burst=100.0,
                                      capacity_retry_after=0.25, clock=clock)
        assert control.try_admit("a")
        assert control.try_admit("a")
        verdict = control.try_admit("a")
        assert not verdict
        assert verdict.reason == "capacity"
        assert verdict.retry_after == pytest.approx(0.25)
        control.release()
        assert control.try_admit("a")

    def test_per_client_buckets_are_independent(self):
        clock = _FakeClock()
        control = AdmissionController(max_inflight_units=100,
                                      client_rate=1.0, client_burst=2.0,
                                      clock=clock)
        assert control.try_admit("greedy")
        assert control.try_admit("greedy")
        verdict = control.try_admit("greedy")
        assert not verdict
        assert verdict.reason == "rate"
        assert verdict.retry_after > 0
        assert control.try_admit("polite")  # unaffected by the other client

    def test_capacity_rejection_does_not_charge_the_bucket(self):
        clock = _FakeClock()
        control = AdmissionController(max_inflight_units=1,
                                      client_rate=1.0, client_burst=1.0,
                                      clock=clock)
        assert control.try_admit("a")  # takes capacity AND a's one token
        assert control.try_admit("b").reason == "capacity"
        control.release()
        # b's token must still be there: the full pool rejected b before
        # its bucket was charged.
        assert control.try_admit("b")


class TestParseEndpoint:
    def test_forms(self, tmp_path):
        assert parse_endpoint("http://127.0.0.1:8080") == \
            ("tcp", "127.0.0.1", 8080)
        assert parse_endpoint("unix:///tmp/x.sock") == \
            ("uds", "/tmp/x.sock", None)
        assert parse_endpoint(str(tmp_path / "s.sock")) == \
            ("uds", str(tmp_path / "s.sock"), None)
        assert parse_endpoint("http://[::1]:8080") == ("tcp", "::1", 8080)

    def test_rejects_bad_forms(self):
        with pytest.raises(ValueError):
            parse_endpoint("http://nohost")
        with pytest.raises(ValueError):
            parse_endpoint("ftp://x")
        with pytest.raises(ValueError, match="explicit port"):
            parse_endpoint("http://[::1]:")
        for unbracketed in ("http://::1:8080", "http://[::1]"):
            with pytest.raises(ValueError, match="brackets"):
                parse_endpoint(unbracketed)


# ---------------------------------------------------------------------------
# The daemon over real sockets


class TestServerRoundTrip:
    def test_uds_round_trip_digests_and_labels(self, tmp_path, small_plan):
        spec = small_plan[0]
        with ThreadedServer(_uds_config(tmp_path)) as server:
            with ServeClient(server.endpoints[0]) as client:
                assert client.health()["status"] == "ok"
                cold = client.submit(spec)
                assert cold["status"] == "ok"
                assert cold["source"] == "simulated"
                assert cold["digest"] == spec.digest()
                assert cold["label"] == spec.label
                warm = client.submit(spec)
                assert warm["source"] == "cache"
                assert warm["digest"] == spec.digest()
                assert warm["result"] == cold["result"]
                stats = client.stats()
                assert stats["simulated"] == 1
                assert stats["hits"] == 1

    def test_tcp_round_trip_digests_and_labels(self, tmp_path, small_plan):
        spec = small_plan[1]
        config = ServeConfig(port=0, cache_dir=tmp_path / "cache")
        with ThreadedServer(config) as server:
            endpoint = server.endpoints[0]
            assert endpoint.startswith("http://127.0.0.1:")
            with ServeClient(endpoint) as client:
                cold = client.submit(spec)
                assert cold["status"] == "ok"
                assert cold["digest"] == spec.digest()
                assert cold["label"] == spec.label
                assert client.submit(spec)["source"] == "cache"

    def test_ipv6_endpoint_is_announced_bracketed_and_dialed(self,
                                                             tmp_path):
        config = ServeConfig(host="::1", port=0, cache_dir=tmp_path / "c")
        with ThreadedServer(config) as server:
            endpoint = server.endpoints[0]
            assert endpoint.startswith("http://[::1]:")
            with ServeClient(endpoint) as client:
                assert client.health()["status"] == "ok"

    def test_submit_many_preserves_order(self, tmp_path, small_plan):
        specs = list(small_plan)
        with ThreadedServer(_uds_config(tmp_path)) as server:
            with ServeClient(server.endpoints[0]) as client:
                outcomes = client.submit_many(specs)
        assert [env["digest"] for env in outcomes] == \
            [spec.digest() for spec in specs]
        assert all(env["status"] == "ok" for env in outcomes)

    def test_unavailable_endpoint_raises(self, tmp_path):
        client = ServeClient(f"unix://{tmp_path}/nothing.sock")
        with pytest.raises(ServeUnavailable):
            client.health()

    def test_failed_dial_closes_its_socket(self, tmp_path, monkeypatch):
        created = []
        real = socket.socket

        def recording(*args, **kwargs):
            sock = real(*args, **kwargs)
            created.append(sock)
            return sock

        monkeypatch.setattr(socket, "socket", recording)
        client = ServeClient(f"unix://{tmp_path}/nothing.sock")
        with pytest.raises(ServeUnavailable):
            client.health()
        assert created
        leaked = [sock for sock in created if sock.fileno() != -1]
        for sock in leaked:
            sock.close()
        assert leaked == []


class TestServerConcurrency:
    def test_concurrent_identical_cold_requests_coalesce(
            self, tmp_path, small_plan):
        spec = small_plan[0]
        fanout = 6
        barrier = threading.Barrier(fanout)
        with ThreadedServer(_uds_config(tmp_path)) as server:
            endpoint = server.endpoints[0]

            def submit():
                with ServeClient(endpoint) as client:
                    barrier.wait()
                    return client.submit(spec)

            with cf.ThreadPoolExecutor(fanout) as pool:
                envelopes = [future.result() for future in
                             [pool.submit(submit) for _ in range(fanout)]]
            with ServeClient(endpoint) as client:
                stats = client.stats()
        assert all(env["status"] == "ok" for env in envelopes)
        assert all(env["digest"] == spec.digest() for env in envelopes)
        # One simulation total; everyone else joined it in flight.
        assert stats["simulated"] == 1
        assert stats["coalesced"] == fanout - 1
        assert sorted(env["source"] for env in envelopes) == \
            sorted(["simulated"] + ["coalesced"] * (fanout - 1))

    def test_cache_hits_flow_while_admission_is_saturated(
            self, tmp_path, small_plan, monkeypatch):
        import dataclasses
        import functools

        from repro.serve import server as server_module

        warm_spec, cold_spec = small_plan[0], small_plan[3]
        slow_spec = dataclasses.replace(cold_spec, max_iters=8)
        # The daemon builds its controller with the defaults; a one-unit
        # capacity saturates it with a single cold spec.
        monkeypatch.setattr(server_module, "AdmissionController",
                            functools.partial(AdmissionController,
                                              max_inflight_units=1,
                                              capacity_retry_after=0.05))
        config = _uds_config(tmp_path)
        with ThreadedServer(config) as server:
            endpoint = server.endpoints[0]
            with ServeClient(endpoint, client_id="warmer") as client:
                client.submit(warm_spec)  # prime the cache

            def submit_cold():
                with ServeClient(endpoint, client_id="cold") as cold:
                    return cold.submit(slow_spec)

            hold = cf.ThreadPoolExecutor(1).submit(submit_cold)
            with ServeClient(endpoint, client_id="probe") as probe:
                # Wait until the cold unit actually occupies the pool.
                for _ in range(200):
                    if probe.stats()["inflight_units"] >= 1:
                        break
                    time.sleep(0.005)
                else:
                    pytest.fail("cold unit never became in-flight")
                # Cold work beyond capacity bounces fast...
                with pytest.raises(ServeRejected) as rejected:
                    probe.submit(small_plan[2], max_wait=0.0)
                assert rejected.value.envelope["reason"] == "capacity"
                # ...while warm hits sail through admission untouched.
                start = time.monotonic()
                envelope = probe.submit(warm_spec)
                hit_latency = time.monotonic() - start
                assert envelope["source"] == "cache"
                assert hit_latency < 1.0
            assert hold.result()["status"] == "ok"

    def test_restart_serves_from_cache_with_zero_resimulation(
            self, tmp_path, small_plan):
        specs = list(small_plan[:2])
        config = _uds_config(tmp_path)
        with ThreadedServer(config) as server:
            with ServeClient(server.endpoints[0]) as client:
                first = client.submit_many(specs)
        assert all(env["status"] == "ok" for env in first)

        # Same cache directory, fresh daemon: every digest must come
        # back from disk, with the simulation path never engaged.
        with ThreadedServer(config) as server:
            with ServeClient(server.endpoints[0]) as client:
                second = client.submit_many(specs)
                stats = client.stats()
        assert [env["digest"] for env in second] == \
            [env["digest"] for env in first]
        assert all(env["source"] == "cache" for env in second)
        assert [env["result"] for env in second] == \
            [env["result"] for env in first]
        assert stats["simulated"] == 0
        assert stats["misses"] == 0
        assert stats["hits"] == len(specs)


class TestOneColdPath:
    """Each /submit sends its newly admitted specs as one plan."""

    def test_one_request_is_one_plan(self, tmp_path, small_plan):
        specs = list(small_plan)
        observer = obs.enable(ring=4096)
        try:
            with ThreadedServer(_uds_config(tmp_path,
                                            backend="serial")) as server:
                with ServeClient(server.endpoints[0]) as client:
                    before = client.stats()["batches"]
                    outcomes = client.submit_many(specs)
                    after = client.stats()
            batches = [event.data for event in
                       observer.sinks[0].events("serve.batch")]
        finally:
            obs.disable()
        assert [env["source"] for env in outcomes] == \
            ["simulated"] * len(specs)
        assert after["batches"] - before == 1
        assert after["simulated"] == len(specs)
        assert batches == [{"units": len(specs)}]

    def test_concurrent_requests_dispatch_separately(
            self, tmp_path, small_plan):
        halves = [list(small_plan[:2]), list(small_plan[2:])]
        barrier = threading.Barrier(len(halves))
        config = _uds_config(tmp_path, backend="serial")
        with ThreadedServer(config) as server:
            endpoint = server.endpoints[0]

            def submit(index):
                with ServeClient(endpoint,
                                 client_id=f"client-{index}") as client:
                    barrier.wait()
                    return client.submit_many(halves[index])

            with cf.ThreadPoolExecutor(len(halves)) as pool:
                answers = list(pool.map(submit, range(len(halves))))
            with ServeClient(endpoint) as client:
                stats = client.stats()
        for half, outcomes in zip(halves, answers):
            assert [env["digest"] for env in outcomes] == \
                [spec.digest() for spec in half]
            assert all(env["source"] == "simulated" for env in outcomes)
        assert stats["batches"] == len(halves)
        assert stats["simulated"] == len(small_plan)

    def test_duplicate_spec_in_one_body_coalesces(
            self, tmp_path, small_plan):
        spec = small_plan[0]
        observer = obs.enable(ring=4096)
        try:
            with ThreadedServer(_uds_config(tmp_path,
                                            backend="serial")) as server:
                with ServeClient(server.endpoints[0]) as client:
                    outcomes = client.submit_many([spec, spec])
                    stats = client.stats()
            batches = [event.data for event in
                       observer.sinks[0].events("serve.batch")]
        finally:
            obs.disable()
        assert [env["source"] for env in outcomes] == \
            ["simulated", "coalesced"]
        assert outcomes[0]["result"] == outcomes[1]["result"]
        assert stats["simulated"] == stats["coalesced"] == 1
        assert stats["batches"] == 1
        assert batches == [{"units": 1}]


class TestServerWorkers:
    def test_cold_batches_simulate_in_daemon_lifetime_workers(
            self, tmp_path, small_plan, monkeypatch):
        from repro.runtime import executor as executor_module
        from repro.serve.server import DISPATCH_WORKERS

        log = tmp_path / "pids"
        real = executor_module.execute_spec

        def recording(spec):  # runs in a (forked) pool worker
            with log.open("a") as handle:
                handle.write(f"{os.getpid()}\n")
            return real(spec)

        monkeypatch.setattr(executor_module, "execute_spec", recording)
        config = _uds_config(tmp_path)
        with ThreadedServer(config) as server:
            # Forked at start-up: one pool of --jobs workers per thread.
            assert len(multiprocessing.active_children()) == \
                DISPATCH_WORKERS * config.jobs
            with ServeClient(server.endpoints[0]) as client:
                for spec in list(small_plan)[:2]:
                    assert client.submit(spec)["source"] == "simulated"
        pids = set(log.read_text().split())
        assert pids and str(os.getpid()) not in pids
        assert not multiprocessing.active_children()


def _raw_exchange(path, data: bytes) -> bytes:
    """Send raw bytes over the UDS; read until the daemon hangs up.

    A daemon that hangs up with some of ``data`` unread resets the
    connection after its reply, which ends the read like a hang-up.
    """
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10)
        sock.connect(str(path))
        sock.sendall(data)
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)


class TestServerEdge:
    def test_malformed_request_line_gets_400(self, tmp_path):
        config = _uds_config(tmp_path, backend="serial")
        with ThreadedServer(config):
            reply = _raw_exchange(config.uds, b"GARBAGE\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"malformed request line" in reply

    def test_overlong_request_line_gets_414(self, tmp_path):
        config = _uds_config(tmp_path, backend="serial")
        with ThreadedServer(config):
            # Past the stream reader's 64 KiB line limit; the daemon must
            # answer and hang up, since the request was never framed.
            reply = _raw_exchange(
                config.uds, b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 414 URI Too Long\r\n")
        assert b"Connection: close" in reply
        assert b"request line too long" in reply

    @pytest.mark.parametrize("length, status", [
        (b"abc", b"400"), (b"-5", b"400"), (b"99999999999", b"413")])
    def test_bad_content_length_is_rejected_before_reading(
            self, tmp_path, length, status):
        config = _uds_config(tmp_path, backend="serial")
        with ThreadedServer(config):
            reply = _raw_exchange(
                config.uds, b"POST /submit HTTP/1.1\r\nContent-Length: "
                + length + b"\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 " + status + b" ")

    def test_slow_request_gets_408_and_idle_keepalive_does_not(
            self, tmp_path, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "REQUEST_READ_TIMEOUT", 0.3)
        config = _uds_config(tmp_path, backend="serial")
        with ThreadedServer(config):
            # Half a request line, then silence: answered 408 and hung up.
            started = time.monotonic()
            reply = _raw_exchange(config.uds, b"GET /heal")
            assert time.monotonic() - started < 5.0
            assert reply.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
            assert reply.count(b"HTTP/1.1 ") == 1
            assert b"Connection: close" in reply
            # A keep-alive connection idle between requests past the
            # limit is still served.
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(10)
                sock.connect(str(config.uds))
                time.sleep(0.6)
                sock.sendall(b"GET /healthz HTTP/1.1\r\n"
                             b"Connection: close\r\n\r\n")
                chunks = []
                while chunk := sock.recv(65536):
                    chunks.append(chunk)
            assert b"".join(chunks).startswith(b"HTTP/1.1 200 ")

    def test_slow_request_raises_nothing_on_the_loop(
            self, tmp_path, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "REQUEST_READ_TIMEOUT", 0.3)
        config = _uds_config(tmp_path, backend="serial")
        errors = []
        with ThreadedServer(config) as server:
            installed = threading.Event()
            server._loop.call_soon_threadsafe(lambda: (
                server._loop.set_exception_handler(
                    lambda loop, context: errors.append(context)),
                installed.set()))
            assert installed.wait(10)
            reply = _raw_exchange(config.uds, b"GET /heal")
            time.sleep(0.2)  # the connection task finishes after the close
        assert reply.startswith(b"HTTP/1.1 408 ")
        assert errors == []

    def test_transfer_encoding_gets_one_501_and_a_close(self, tmp_path):
        config = _uds_config(tmp_path, backend="serial")
        with ThreadedServer(config):
            # Were the chunk bytes parsed as a second request, the reply
            # would carry a second response after the first.
            reply = _raw_exchange(
                config.uds, b"POST /submit HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"b\r\n{\"spec\": 1}\r\n0\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" in reply
        assert b"Transfer-Encoding is not supported" in reply

    @pytest.mark.parametrize("headers, status", [
        (b"X-Long: " + b"a" * 70_000 + b"\r\n", b"431"),
        (b"".join(b"X-H%d: v\r\n" % i for i in range(100)), b"431"),
        (b"".join(b"X-H%d: v\r\n" % i for i in range(99)), b"200"),
    ], ids=["long-line", "101-headers", "100-headers"])
    def test_header_limits(self, tmp_path, headers, status):
        config = _uds_config(tmp_path, backend="serial")
        with ThreadedServer(config):
            # _raw_exchange reads until the daemon hangs up: a 431 must
            # close the connection even though framing never completed.
            reply = _raw_exchange(
                config.uds, b"GET /healthz HTTP/1.1\r\n"
                b"Connection: close\r\n" + headers + b"\r\n")
        assert reply.startswith(b"HTTP/1.1 " + status + b" ")


    def test_ill_typed_spec_field_gets_400(self, tmp_path, small_plan):
        payload = dict(small_plan[0].to_dict(), max_iters="abc")
        config = _uds_config(tmp_path, backend="serial")
        with ThreadedServer(config) as server:
            with ServeClient(server.endpoints[0]) as client:
                with pytest.raises(ServeError,
                                   match="submit returned 400.*max_iters"):
                    client.submit(payload)
                assert client.stats()["requests"] == 0

    def test_non_canonical_spec_gets_400(self, tmp_path, small_plan):
        spec = small_plan[0].to_dict()
        lowercase = dict(spec, configs=["tg0", "sgr"], baseline="tg0")
        float_sms = dict(spec, system=dict(spec["system"], num_sms=4.0))
        config = _uds_config(tmp_path, backend="serial")
        with ThreadedServer(config) as server:
            with ServeClient(server.endpoints[0]) as client:
                with pytest.raises(ServeError,
                                   match="submit returned 400.*'TG0'"):
                    client.submit(lowercase)
                with pytest.raises(ServeError,
                                   match="submit returned 400.*num_sms"):
                    client.submit(float_sms)
                assert client.stats()["requests"] == 0


    def test_impossible_system_gets_400(self, tmp_path, small_plan):
        spec = small_plan[0].to_dict()
        config = _uds_config(tmp_path, backend="serial")
        with ThreadedServer(config) as server:
            with ServeClient(server.endpoints[0]) as client:
                for field, value in (("tb_size", 0), ("l1_hit_latency", -1),
                                     ("l2_latency_min", 70)):
                    bad = dict(spec, system=dict(spec["system"],
                                                 **{field: value}))
                    with pytest.raises(ServeError,
                                       match=f"submit returned 400.*{field}"):
                        client.submit(bad)
                assert client.stats()["requests"] == 0


def _submit_bytes(path, payload: dict) -> bytes:
    """One raw ``POST /submit`` exchange: the whole HTTP response."""
    body = json.dumps(payload).encode()
    return _raw_exchange(
        path, b"POST /submit HTTP/1.1\r\nConnection: close\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body) + body)


def _split_response(reply: bytes) -> tuple[int, bytes]:
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


@pytest.fixture(scope="module")
def small_results(small_plan):
    from repro.runtime import execute_spec

    return [execute_spec(spec) for spec in small_plan]


def _warm_config(tmp_path, small_plan, small_results, **overrides):
    """A UDS config whose cache already holds every small_plan result."""
    from repro.runtime import ResultCache

    config = _uds_config(tmp_path, **overrides)
    cache = ResultCache(config.cache_dir)
    for spec, result in zip(small_plan, small_results):
        cache.put(spec, result)
    return config


class TestHotMap:
    """Repeated specs are answered from the daemon's in-memory map."""

    def test_hot_response_is_byte_identical_to_disk_response(
            self, tmp_path, small_plan, small_results):
        specs = [spec.to_dict() for spec in small_plan]
        config = _warm_config(tmp_path, small_plan, small_results)
        with ThreadedServer(config) as server:
            hot = server.server._hot
            single = {"spec": specs[0]}
            batch = {"specs": [specs[1], specs[2], specs[1]]}
            disk = _submit_bytes(config.uds, single)
            assert len(hot) == 1
            assert _submit_bytes(config.uds, single) == disk
            disk_batch = _submit_bytes(config.uds, batch)
            assert len(hot) == 3
            assert _submit_bytes(config.uds, batch) == disk_batch
            # A batch mixing a hot spec and one read from disk.
            mixed = {"specs": [specs[3], specs[0]]}
            disk_mixed = _submit_bytes(config.uds, mixed)
            assert _submit_bytes(config.uds, mixed) == disk_mixed
            with ServeClient(server.endpoints[0]) as client:
                stats = client.stats()
        for reply in (disk, disk_batch, disk_mixed):
            status, body = _split_response(reply)
            assert status == 200
            # The body is what json.dumps makes of what it carries.
            assert json.dumps(json.loads(body)).encode() == body
        outcomes = json.loads(_split_response(disk_mixed)[1])["outcomes"]
        assert [env["digest"] for env in outcomes] == \
            [small_plan[3].digest(), small_plan[0].digest()]
        assert all(env["source"] == "cache" for env in outcomes)
        assert stats["requests"] == stats["hits"] == 12
        assert stats["misses"] == 0

    def test_hot_map_is_a_bounded_lru(self, tmp_path, small_plan,
                                       small_results, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "HOT_ENTRIES", 2)
        a, b, c, _ = small_plan
        config = _warm_config(tmp_path, small_plan, small_results)
        with ThreadedServer(config) as server:
            hot = server.server._hot
            with ServeClient(server.endpoints[0]) as client:
                sizes = []
                for spec in (a, b, a, c):
                    assert client.submit(spec)["source"] == "cache"
                    sizes.append(len(hot))
                # b was the least recently used when c came in.
                assert [entry[0] for entry in hot.values()] == \
                    [a.digest(), c.digest()]
                # A batch's hot hits are touched before its disk reads
                # fill the map: a stays, b comes in, c leaves.
                client.submit_many([b, a])
                assert [entry[0] for entry in hot.values()] == \
                    [a.digest(), b.digest()]
        assert sizes == [1, 2, 2, 2]

    def test_hot_hit_answers_after_its_entry_is_deleted(
            self, tmp_path, small_plan, small_results):
        from repro.runtime import ResultCache

        spec = small_plan[0]
        config = _warm_config(tmp_path, small_plan, small_results)
        with ThreadedServer(config) as server:
            with ServeClient(server.endpoints[0]) as client:
                first = client.submit(spec)
                ResultCache(config.cache_dir).path_for(spec).unlink()
                # Results are content-addressed: the answer is the same.
                assert client.submit(spec) == first
                assert client.stats()["simulated"] == 0

    def test_hot_hits_count_and_emit_like_disk_hits(
            self, tmp_path, small_plan, small_results):
        spec = small_plan[0]
        config = _warm_config(tmp_path, small_plan, small_results)
        observer = obs.enable(ring=4096)
        try:
            with ThreadedServer(config) as server:
                with ServeClient(server.endpoints[0],
                                 client_id="c") as client:
                    client.submit(spec)  # from disk
                    client.submit(spec)  # from the hot map
                    stats = client.stats()
            ring = observer.sinks[0]
            requests = [event.data for event in ring.events("serve.request")]
            hits = [event.data for event in ring.events("serve.hit")]
            counters = observer.metrics.snapshot()["counters"]
        finally:
            obs.disable()
        assert requests == [{"digest": spec.digest(), "label": spec.label,
                             "client": "c"}] * 2
        assert hits == [{"digest": spec.digest(), "label": spec.label}] * 2
        assert counters["serve.hits"] == 2
        assert stats["requests"] == stats["hits"] == 2

    def test_invalid_specs_stay_out_after_a_similar_hit(
            self, tmp_path, small_plan, small_results):
        valid = small_plan[0].to_dict()
        bad = [dict(valid, max_iters="abc"),
               dict(valid, configs=["tg0", "sgr"], baseline="tg0"),
               dict(valid, system=dict(valid["system"], num_sms=4.0)),
               dict(valid, system=dict(valid["system"], tb_size=0))]
        config = _warm_config(tmp_path, small_plan, small_results)
        with ThreadedServer(config) as server:
            hot = server.server._hot
            with ServeClient(server.endpoints[0]) as client:
                client.submit(valid)
                client.submit(valid)
                for payload in bad:
                    with pytest.raises(ServeError,
                                       match="submit returned 400"):
                        client.submit(payload)
                    # One bad spec fails a batch with a hot one in it.
                    status, _body = _split_response(_submit_bytes(
                        config.uds, {"specs": [valid, payload]}))
                    assert status == 400
                stats = client.stats()
        assert len(hot) == 1
        assert stats["requests"] == stats["hits"] == 2

    def test_padded_specs_are_answered_but_never_kept(
            self, tmp_path, small_plan, small_results):
        valid = small_plan[0].to_dict()
        # from_dict ignores unknown top-level keys and fills GraphRef's
        # defaults, so each of these is a disk hit on the same digest.
        graph = dict(valid["graph"])
        assert graph.pop("fingerprint") is None
        variants = [dict(valid, pad="x" * 4096), dict(valid, note=1),
                    dict(valid, graph=graph)]
        config = _warm_config(tmp_path, small_plan, small_results)
        with ThreadedServer(config) as server:
            hot = server.server._hot
            with ServeClient(server.endpoints[0]) as client:
                for payload in variants:
                    for _ in range(2):
                        reply = client.submit(payload)
                        assert reply["digest"] == small_plan[0].digest()
                        assert reply["source"] == "cache"
                    status, _body = _split_response(_submit_bytes(
                        config.uds, {"specs": [payload, payload]}))
                    assert status == 200
                assert len(hot) == 0
                client.submit(valid)
                stats = client.stats()
        assert list(hot) == [json.dumps(valid, sort_keys=True,
                                        separators=(",", ":"))]
        assert stats["requests"] == stats["hits"] == 4 * len(variants) + 1

    def test_corrupt_disk_entry_is_simulated_again_and_never_kept(
            self, tmp_path, small_plan, small_results):
        from repro.runtime import RESULT_SCHEMA_VERSION, ResultCache

        spec = small_plan[0]
        config = _warm_config(tmp_path, small_plan, small_results)
        cache = ResultCache(config.cache_dir)
        # Parseable JSON with the right schema, but no WorkloadResult.
        cache.path_for(spec).write_text(json.dumps(
            {"schema": RESULT_SCHEMA_VERSION, "result": {"garbage": 1}}))
        with ThreadedServer(config) as server:
            hot = server.server._hot
            with ServeClient(server.endpoints[0]) as client:
                first = client.submit(spec)
                assert first["source"] == "simulated"
                assert len(hot) == 0
                again = client.submit(spec)
                stats = client.stats()
        expected = small_results[0].to_dict()
        assert first["result"] == expected
        assert again["source"] == "cache"
        assert again["result"] == expected
        # The entry was rewritten, and only the healed envelope is kept.
        assert cache.load(spec).to_dict() == expected
        [(_digest, _label, encoded)] = hot.values()
        assert json.loads(encoded)["result"] == expected
        assert stats["simulated"] == 1


class TestWarmHitFloor:
    """A repeated spec costs one encode, one client write and no task."""

    def test_submitting_a_spec_twice_encodes_it_once(
            self, tmp_path, small_plan, small_results, monkeypatch):
        from repro.runtime import WorkloadSpec

        spec = WorkloadSpec.from_dict(small_plan[0].to_dict())
        calls = []
        to_dict = WorkloadSpec.to_dict

        def counting(self):
            if self is spec:
                calls.append(1)
            return to_dict(self)

        monkeypatch.setattr(WorkloadSpec, "to_dict", counting)
        config = _warm_config(tmp_path, small_plan, small_results,
                              backend="serial")
        with ThreadedServer(config) as server:
            with ServeClient(server.endpoints[0], client_id="c") as client:
                assert client.submit(spec)["source"] == "cache"
                assert client.submit(spec)["source"] == "cache"
        assert len(calls) <= 1

    def test_each_submit_is_one_socket_write(
            self, tmp_path, small_plan, small_results, monkeypatch):
        dialed = []

        class Counting(socket.socket):
            # Accepted sockets are built with a fileno; a dial is not.
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.writes = 0
                if kwargs.get("fileno") is None:
                    dialed.append(self)

            def send(self, data, *args):
                self.writes += 1
                return super().send(data, *args)

            def sendall(self, data, *args):
                self.writes += 1
                return super().sendall(data, *args)

        spec = small_plan[0]
        config = _warm_config(tmp_path, small_plan, small_results,
                              backend="serial")
        with ThreadedServer(config) as server:
            monkeypatch.setattr(socket, "socket", Counting)
            with ServeClient(server.endpoints[0]) as client:
                for _ in range(5):
                    assert client.submit(spec)["source"] == "cache"
                client.submit_many(list(small_plan))
        assert len(dialed) == 1
        assert dialed[0].writes == 6

    def test_hot_hits_start_no_task(self, tmp_path, small_plan,
                                    small_results):
        import asyncio

        spec = small_plan[0]
        created = []

        def factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        config = _warm_config(tmp_path, small_plan, small_results,
                              backend="serial")
        with ThreadedServer(config) as server:
            loop = server._loop

            def install(task_factory):
                done = threading.Event()
                loop.call_soon_threadsafe(
                    lambda: (loop.set_task_factory(task_factory),
                             done.set()))
                assert done.wait(10)

            with ServeClient(server.endpoints[0]) as client:
                # The first request dials (one connection task) and
                # fills the hot map from disk.
                assert client.submit(spec)["source"] == "cache"
                install(factory)
                try:
                    for _ in range(50):
                        assert client.submit(spec)["source"] == "cache"
                finally:
                    install(None)
        assert created == []


@contextlib.contextmanager
def _fake_server(path, reply: bytes):
    """A Unix-socket listener answering every request with ``reply``."""
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(str(path))
    listener.listen(4)

    def serve():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # the listener was shut down
            with conn:
                conn.recv(65536)
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes the accept
        listener.close()
        thread.join(timeout=10)
    assert not thread.is_alive()


class TestClientFraming:
    @pytest.mark.parametrize("reply, message", [
        (b"GARBAGE\r\n\r\n", "malformed status line"),
        (b"HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\n{}",
         "malformed status line"),
        (b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{}",
         "Content-Length"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}",
         "Content-Length"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\n{}",
         "Content-Length"),
        (b"HTTP/1.1 200 OK\r\n"
         + b"".join(b"X-H%d: v\r\n" % i for i in range(101))
         + b"Content-Length: 2\r\n\r\n{}", "more than 100"),
        (b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70_000
         + b"\r\nContent-Length: 2\r\n\r\n{}", "over 65536 bytes"),
    ], ids=["garbage", "bad-code", "no-length", "bad-length",
            "negative-length", "101-headers", "long-header"])
    def test_malformed_response_fails_closed(self, tmp_path, reply,
                                             message):
        path = tmp_path / "fake.sock"
        with _fake_server(path, reply):
            with ServeClient(f"unix://{path}", timeout=5) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.health()
                assert client._sock is None  # framing lost: dropped
        assert type(excinfo.value) is ServeError
        assert message in str(excinfo.value)

    def test_connection_close_drops_the_socket(self, tmp_path):
        path = tmp_path / "fake.sock"
        with _fake_server(
                path, b"HTTP/1.1 200 OK\r\nContent-Length: 16\r\n"
                b"Connection: close\r\n\r\n{\"status\": \"ok\"}"):
            with ServeClient(f"unix://{path}", timeout=5) as client:
                assert client.health() == {"status": "ok"}
                assert client._sock is None
                assert client.health() == {"status": "ok"}

    def test_tcp_connection_sets_nodelay(self, tmp_path):
        config = ServeConfig(port=0, cache_dir=tmp_path / "cache",
                             backend="serial")
        with ThreadedServer(config) as server:
            with ServeClient(server.endpoints[0]) as client:
                assert client.health() == {"status": "ok"}
                assert client._sock.getsockopt(socket.IPPROTO_TCP,
                                               socket.TCP_NODELAY)

    def test_one_client_survives_a_daemon_restart(
            self, tmp_path, small_plan, small_results):
        spec = small_plan[0]
        config = _warm_config(tmp_path, small_plan, small_results,
                              backend="serial")
        with ServeClient(f"unix://{config.uds}") as client:
            with ThreadedServer(config):
                assert client.submit(spec)["source"] == "cache"
            # The kept-alive connection went with the first daemon; the
            # next request redials the second one on the same path.
            with ThreadedServer(config):
                assert client.submit(spec)["source"] == "cache"
                assert client.stats()["requests"] == 1


class TestStartFailure:
    @pytest.mark.parametrize("failure", ["jobs", "port"])
    def test_failing_start_leaves_no_socket_file(self, tmp_path, failure):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            overrides = ({"jobs": 0} if failure == "jobs"
                         else {"port": taken.getsockname()[1]})
            server = ThreadedServer(_uds_config(tmp_path, **overrides))
            try:
                with pytest.raises((ValueError, OSError)):
                    server.start()
            finally:
                server.stop()
        assert not (tmp_path / "serve.sock").exists()


class TestServerObservability:
    def test_serve_events_stream_without_drops(self, tmp_path, small_plan):
        spec = small_plan[0]
        observer = obs.enable(ring=65536)
        try:
            with ThreadedServer(_uds_config(tmp_path)) as server:
                with ServeClient(server.endpoints[0]) as client:
                    client.submit(spec)
                    client.submit(spec)
            ring = observer.sinks[0]
            assert ring.dropped == 0
            for kind in ("serve.started", "serve.request", "serve.miss",
                         "serve.admitted", "serve.batch", "serve.hit",
                         "serve.stopped"):
                assert ring.events(kind), f"no {kind} event"
            hits = ring.events("serve.hit")
            assert hits[0].data["digest"] == spec.digest()
        finally:
            obs.disable()

    def test_stats_report_obs_drops(self, tmp_path, small_plan):
        with ThreadedServer(_uds_config(tmp_path)) as server:
            with ServeClient(server.endpoints[0]) as client:
                assert client.stats()["obs_dropped"] == 0


class _MalformedResultClient:
    """Stands in for ServeClient: every unit comes back 'ok' with a
    result payload that does not parse."""

    def __init__(self, *args, **kwargs) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def health(self) -> dict:
        return {"status": "ok"}

    def submit(self, spec, max_wait=None) -> dict:
        return {"digest": spec.digest(), "label": spec.label,
                "status": "ok", "source": "cache",
                "result": {"app": 1, "graph_name": "DCT", "results": {}}}

    def submit_many(self, specs) -> list:
        return [self.submit(spec) for spec in specs]


class _MalformedFailureClient(_MalformedResultClient):
    """Every unit comes back 'failed' with a failure payload carrying a
    field no ``UnitFailure`` has."""

    def submit(self, spec, max_wait=None) -> dict:
        return {"digest": spec.digest(), "label": spec.label,
                "status": "failed", "source": "simulated",
                "failure": {"digest": spec.digest(), "label": spec.label,
                            "kind": "error", "attempts": 1,
                            "exception": "E", "message": "m",
                            "bogus": 1}}


class TestMalformedServedFailure:
    """A served failure that does not parse is an error line too."""

    @pytest.fixture(autouse=True)
    def _malformed_server(self, monkeypatch):
        import repro.serve

        monkeypatch.setattr(repro.serve, "ServeClient",
                            _MalformedFailureClient)

    @pytest.mark.parametrize("argv", [
        ["submit", "DCT", "PR", "--iters", "1"],
        ["sweep", "--graphs", "DCT", "--apps", "PR", "--iters", "1"],
    ], ids=["submit", "sweep"])
    def test_reports_error(self, argv, capsys):
        from repro.cli import main

        assert main(argv + ["--server", "unix:///nowhere.sock"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: malformed failure from unix:///nowhere.sock: ")
        assert "unknown UnitFailure fields: ['bogus']" in err


class TestMalformedServedResult:
    """A served result that does not parse is an error line, not a
    traceback."""

    @pytest.fixture(autouse=True)
    def _malformed_server(self, monkeypatch):
        import repro.serve

        monkeypatch.setattr(repro.serve, "ServeClient",
                            _MalformedResultClient)

    def test_submit_reports_error(self, capsys):
        from repro.cli import main

        assert main(["submit", "DCT", "PR", "--iters", "1",
                     "--server", "unix:///nowhere.sock"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed result")
        assert "'app' has the wrong type" in err

    def test_sweep_via_server_reports_error(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--graphs", "DCT", "--apps", "PR",
                     "--iters", "1",
                     "--server", "unix:///nowhere.sock"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed result from")
        assert "'app' has the wrong type" in err
