"""Fuzz the serve daemon's raw-socket request path end to end.

Hypothesis builds request bytes (request lines, header lines,
``Content-Length`` values, truncated and oversized bodies, and the body
of a spec already in the daemon's hot map under other methods and
paths) and sends each on its own Unix-socket connection to a
:class:`~repro.serve.ThreadedServer`.  Every request must get exactly one
response with a documented status, or a clean close; never a 500, and
never an exception escaping a connection task.  A valid request on a
fresh connection must still be answered afterwards.
"""

import json
import logging
import socket

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.runtime import ExecutionPlan, ResultCache, execute_spec
from repro.serve import ServeClient, ServeConfig, ThreadedServer
from repro.sim.config import SystemConfig

#: Every status the daemon documents for a request it could read.
DOCUMENTED = {200, 400, 404, 405, 408, 413, 414, 431, 501}

SPEC = ExecutionPlan.for_sweep(
    ("DCT",), ("PR",), max_iters=1, scales={"DCT": 64},
    base_system=SystemConfig(num_sms=4, l1_bytes=1024, l2_bytes=16 * 1024,
                             tb_size=64, max_tbs_per_sm=2,
                             kernel_launch_cycles=100))[0]
HOT_BODY = json.dumps({"spec": SPEC.to_dict()}).encode()

_TOKEN = st.text(st.characters(min_codepoint=33, max_codepoint=126),
                 min_size=1, max_size=12)
_LINE = st.binary(max_size=40).filter(
    lambda raw: b"\r" not in raw and b"\n" not in raw)
_NAME = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789-",
                min_size=1, max_size=16).filter(
    lambda name: name.lower() not in
    ("connection", "content-length", "transfer-encoding"))
_VALUE = st.text(st.characters(blacklist_characters="\r\n",
                               max_codepoint=0xFF), max_size=24)


@st.composite
def requests(draw) -> bytes:
    """One request's bytes; it always asks for ``Connection: close``."""
    method = draw(st.sampled_from(
        ["GET", "POST", "PUT", "DELETE", "post"]) | _TOKEN)
    path = draw(st.sampled_from(
        ["/submit", "/healthz", "/stats", "/shutdown", "/nope",
         "/submit?x=1"]) | _TOKEN.map(lambda text: "/" + text))
    if path.split("?", 1)[0] == "/shutdown" and method == "POST":
        method = "GET"  # the one request that would stop the daemon
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]) | _TOKEN)
    line = draw(st.just(f"{method} {path} {version}".encode("latin-1"))
                | _LINE)
    body = draw(st.sampled_from(
        [b"", HOT_BODY, b"{}", b'{"spec": 1}', b'{"specs": []}',
         b"[" * 5000 + b"]" * 5000, b"\xff\xfe"]) | st.binary(max_size=64))
    length = draw(st.sampled_from(
        ["exact", "none", "short", "long", "junk", "negative", "huge"]))
    headers = [b"Connection: close"]
    headers += [f"{name}: {value}".encode("latin-1") for name, value
                in draw(st.lists(st.tuples(_NAME, _VALUE), max_size=4))]
    headers += draw(st.lists(_LINE, max_size=2))
    if draw(st.booleans()) and draw(st.booleans()):
        headers.append(b"Transfer-Encoding: chunked")
    value = {"exact": len(body), "short": max(len(body) - 3, 0),
             "long": len(body) + 7, "junk": "12ab", "negative": -4,
             "huge": 1 << 40, "none": None}[length]
    if value is not None:
        headers.append(b"Content-Length: %s" % str(value).encode())
    return line + b"\r\n" + b"".join(h + b"\r\n" for h in headers) \
        + b"\r\n" + body


def _exchange(path, data: bytes) -> bytes:
    """Send ``data``, half-close, and read until the daemon hangs up."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10)
        sock.connect(str(path))
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # hung up with some of ``data`` unread
    return b"".join(chunks)


def _check_reply(reply: bytes) -> None:
    """Empty (a clean close) or exactly one documented response."""
    if not reply:
        return
    head, sep, body = reply.partition(b"\r\n\r\n")
    assert sep, reply
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].startswith("HTTP/1.1 ")
    status = int(lines[0].split()[1])
    assert status in DOCUMENTED, reply
    fields = dict(line.split(": ", 1) for line in lines[1:])
    assert int(fields["Content-Length"]) == len(body), reply
    assert isinstance(json.loads(body), dict)


def test_fuzzed_requests_get_one_documented_answer(tmp_path, caplog):
    config = ServeConfig(uds=tmp_path / "serve.sock",
                         cache_dir=tmp_path / "cache", backend="serial")
    ResultCache(config.cache_dir).put(SPEC, execute_spec(SPEC))
    caplog.set_level(logging.ERROR, logger="asyncio")
    with ThreadedServer(config) as server:
        with ServeClient(server.endpoints[0]) as client:
            client.submit(SPEC)  # HOT_BODY's spec now sits in the hot map

        @settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(data=requests())
        @example(data=b"POST /submit HTTP/1.1\r\nConnection: close\r\n"
                 b"Content-Length: %d\r\n\r\n" % len(HOT_BODY) + HOT_BODY)
        @example(data=b"POST /submit HTTP/1.1\r\nConnection: close\r\n"
                 b"Content-Length: 200001\r\n\r\n"
                 + b"[" * 100_000 + b"]" * 100_001)
        def check(data):
            _check_reply(_exchange(config.uds, data))

        check()
        with ServeClient(server.endpoints[0]) as client:
            assert client.health()["status"] == "ok"
            assert client.submit(SPEC)["source"] == "cache"
            stats = client.stats()
    assert stats["simulated"] == 0
    assert not [record for record in caplog.records
                if record.name == "asyncio"], caplog.text
