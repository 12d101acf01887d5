"""Blocking HTTP client for the serve daemon (stdlib only).

The CLI — and anything else in-process — talks to ``repro serve``
through :class:`ServeClient`: one persistent keep-alive connection to a
TCP (``http://host:port``) or Unix-domain (``unix:///path.sock``)
endpoint, JSON bodies both ways, framed by hand in the subset of
HTTP/1.1 the daemon speaks (``Content-Length`` bodies only): a request
leaves in one ``sendall``, its response is read from the socket's
buffered reader, and a response framed any other way fails closed with
:class:`ServeError`.  A :class:`~repro.runtime.WorkloadSpec` is sent as
its :meth:`~repro.runtime.WorkloadSpec.canonical` text, encoded once per
spec object.  The client owns the *retry* half of admission control: a
rejected unit (HTTP 429, or a per-spec ``rejected`` envelope in a batch
response) is re-submitted after the server's ``retry_after`` hint, up
to a deadline, so callers see only final outcomes.

:class:`ServeUnavailable` distinguishes "no daemon there" (connection
refused, socket gone) from application-level failures, which is what
lets ``repro sweep --server URL`` fall back to local execution.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Iterable

from ..runtime import WorkloadSpec
from .server import MAX_HEADERS

__all__ = ["ServeClient", "ServeUnavailable", "ServeError",
           "ServeRejected", "parse_endpoint"]


#: Longest response line read (the daemon's own stream-reader limit).
_MAX_LINE = 64 * 1024


class ServeError(Exception):
    """The server answered, but not with what we asked for."""


class ServeUnavailable(ServeError):
    """No server at the endpoint (refused, reset, missing socket)."""


class ServeRejected(ServeError):
    """Admission control said no and the retry budget ran out."""

    def __init__(self, envelope: dict) -> None:
        self.envelope = envelope
        super().__init__(
            f"{envelope.get('label')}: rejected "
            f"({envelope.get('reason')}); retry after "
            f"{envelope.get('retry_after', 0.0):.3f}s")


def parse_endpoint(address: str) -> tuple[str, str, int | None]:
    """Split an endpoint string into ``(kind, target, port)``.

    ``http://host:port`` -> ``('tcp', host, port)``, an IPv6 host
    bracketed (``http://[::1]:8080`` -> ``('tcp', '::1', 8080)``);
    ``unix:///path.sock`` (or a bare filesystem path) ->
    ``('uds', path, None)``.
    """
    if address.startswith("unix://"):
        return "uds", address[len("unix://"):], None
    if address.startswith("http://"):
        rest = address[len("http://"):].rstrip("/")
        host, colon, port = rest.rpartition(":")
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]
        elif ":" in host or rest.startswith("["):
            raise ValueError(f"endpoint {address!r}: an IPv6 host goes in "
                             f"brackets before the port, as "
                             f"http://[::1]:8080")
        if not (colon and port):
            raise ValueError(f"endpoint {address!r} needs an explicit port")
        return "tcp", host, int(port)
    if "://" in address:
        raise ValueError(f"unsupported endpoint scheme in {address!r}")
    return "uds", address, None  # bare path reads as a Unix socket


class ServeClient:
    """One connection to a serve daemon; reconnects transparently."""

    def __init__(self, address: str, timeout: float | None = 60.0,
                 client_id: str | None = None) -> None:
        self.address = address
        self.kind, self._target, self._port = parse_endpoint(address)
        self.timeout = timeout
        self.client_id = client_id
        self._client_field = (f',"client":{json.dumps(client_id)}'
                              if client_id else "")
        self._sock: socket.socket | None = None
        self._rfile = None

    # -- transport --------------------------------------------------------

    def _dial(self) -> None:
        tcp = self.kind == "tcp"
        if not tcp:
            family = socket.AF_UNIX
        elif ":" in self._target:  # an IPv6 literal (parse_endpoint)
            family = socket.AF_INET6
        else:
            family = socket.AF_INET
        sock = socket.socket(family)
        try:
            sock.settimeout(self.timeout)  # None: blocking, as created
            sock.connect((self._target, self._port) if tcp else self._target)
            if tcp:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            sock.close()  # never assigned to self._sock: close() misses it
            raise
        self._sock, self._rfile = sock, sock.makefile("rb")

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(self, request: bytes) -> tuple[int, bytes]:
        """One request in one write; the response's status and body."""
        self._sock.sendall(request)
        lines = []  # the status line, then the header lines
        for _ in range(MAX_HEADERS + 2):
            line = self._rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                raise ServeError(f"response line over {_MAX_LINE} bytes")
            if line in (b"\r\n", b"\n", b""):
                break
            lines.append(line)
        else:
            raise ServeError(f"more than {MAX_HEADERS} response headers")
        if not lines:  # a stale keep-alive connection
            raise ConnectionError("server closed the connection")
        status = lines[0][9:12]  # b"HTTP/1.1 200 OK\r\n"
        if not (lines[0].startswith(b"HTTP/1.") and status.isdigit()):
            raise ServeError(f"malformed status line {lines[0][:200]!r}")
        headers = {name.strip(): value.strip() for name, _, value in
                   (line.lower().partition(b":") for line in lines[1:])}
        length = headers.get(b"content-length", b"")
        if not length.isdigit():  # ASCII digits only: no sign, no space
            raise ServeError(f"bad response Content-Length {length!r}")
        body = self._rfile.read(int(length))
        if len(body) < int(length):
            raise ConnectionError("response body cut short")
        if headers.get(b"connection") == b"close":
            self.close()
        return int(status), body

    def _request(self, method: str, path: str,
                 body: str = "") -> tuple[int, dict]:
        data = body.encode()
        request = (f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
                   f"Content-Type: application/json\r\n"
                   f"Content-Length: {len(data)}\r\n\r\n").encode() + data
        for fresh in (False, True):
            if fresh:
                self.close()  # stale keep-alive connection; redial once
            try:
                if self._sock is None:
                    self._dial()
                status, raw = self._exchange(request)
            except (ConnectionRefusedError, FileNotFoundError) as exc:
                self.close()
                raise ServeUnavailable(
                    f"no server at {self.address}: {exc}") from exc
            except ServeError:
                self.close()  # the response's framing is lost
                raise
            except OSError as exc:
                self.close()
                if fresh:
                    raise ServeUnavailable(
                        f"lost server at {self.address}: {exc}") from exc
                continue
            try:
                parsed = json.loads(raw) if raw else {}
            except ValueError as exc:
                raise ServeError(
                    f"non-JSON response ({status}): {raw[:200]!r}") from exc
            return status, parsed
        raise AssertionError("unreachable")

    # -- API --------------------------------------------------------------

    def _ok(self, method: str, path: str) -> dict:
        status, payload = self._request(method, path)
        if status != 200:
            raise ServeError(f"{path[1:]} returned {status}: {payload}")
        return payload

    def health(self) -> dict:
        return self._ok("GET", "/healthz")

    def stats(self) -> dict:
        return self._ok("GET", "/stats")

    def shutdown(self) -> dict:
        return self._ok("POST", "/shutdown")

    @staticmethod
    def _spec_text(spec: "WorkloadSpec | dict") -> str:
        return (spec.canonical() if isinstance(spec, WorkloadSpec)
                else json.dumps(spec))

    def _batch_body(self, texts: list[str]) -> str:
        return f'{{"specs":[{",".join(texts)}]{self._client_field}}}'

    def submit(self, spec: "WorkloadSpec | dict",
               max_wait: float = 60.0) -> dict:
        """Submit one workload; returns its result envelope.

        Rejections are retried after the server's ``retry_after`` hint
        until ``max_wait`` elapses, then surface as
        :class:`ServeRejected`.  Application failures come back as the
        envelope (``status: 'failed'``) — the caller decides severity.
        """
        body = f'{{"spec":{self._spec_text(spec)}{self._client_field}}}'
        deadline = time.monotonic() + max_wait
        while True:
            status, envelope = self._request("POST", "/submit", body)
            if status == 200:
                return envelope
            if status == 429:
                wait = max(float(envelope.get("retry_after", 0.1)), 0.01)
                if time.monotonic() + wait > deadline:
                    raise ServeRejected(envelope)
                time.sleep(wait)
                continue
            raise ServeError(f"submit returned {status}: {envelope}")

    def submit_many(self, specs: Iterable["WorkloadSpec | dict"],
                    max_wait: float = 600.0) -> list[dict]:
        """Submit a batch; returns envelopes in input order.

        The server answers every spec in one response; entries it
        rejected (admission) are re-submitted — alone, preserving their
        slots — after their ``retry_after`` hints, until ``max_wait``
        runs out and the remaining rejections are returned as-is.
        """
        texts = [self._spec_text(spec) for spec in specs]
        status, parsed = self._request("POST", "/submit",
                                       self._batch_body(texts))
        if status != 200:
            raise ServeError(f"submit returned {status}: {parsed}")
        outcomes = parsed["outcomes"]
        deadline = time.monotonic() + max_wait
        while True:
            retry = [index for index, envelope in enumerate(outcomes)
                     if envelope.get("status") == "rejected"]
            if not retry:
                return outcomes
            wait = max((float(outcomes[index].get("retry_after", 0.1))
                        for index in retry), default=0.1)
            if time.monotonic() + wait > deadline:
                return outcomes
            time.sleep(max(wait, 0.01))
            status, parsed = self._request(
                "POST", "/submit",
                self._batch_body([texts[index] for index in retry]))
            if status != 200:
                raise ServeError(f"submit returned {status}: {parsed}")
            for slot, envelope in zip(retry, parsed["outcomes"]):
                outcomes[slot] = envelope
