"""Blocking HTTP client for the serve daemon (stdlib only).

The CLI — and anything else in-process — talks to ``repro serve``
through :class:`ServeClient`: one persistent keep-alive connection to a
TCP (``http://host:port``) or Unix-domain (``unix:///path.sock``)
endpoint, JSON bodies both ways.  The client owns the *retry* half of
admission control: a rejected unit (HTTP 429, or a per-spec
``rejected`` envelope in a batch response) is re-submitted after the
server's ``retry_after`` hint, up to a deadline, so callers see only
final outcomes.

:class:`ServeUnavailable` distinguishes "no daemon there" (connection
refused, socket gone) from application-level failures, which is what
lets ``repro sweep --server URL`` fall back to local execution.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Iterable

from ..runtime import WorkloadSpec

__all__ = ["ServeClient", "ServeUnavailable", "ServeError",
           "ServeRejected", "parse_endpoint"]


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

    ``http://host:port`` -> ``('tcp', host, port)``;
    ``unix:///path.sock`` (or a bare filesystem path) ->
    ``('uds', path, None)``.
    """
    if address.startswith("unix://"):
        return "uds", address[len("unix://"):], None
    if address.startswith("http://"):
        rest = address[len("http://"):].rstrip("/")
        host, _, port = rest.partition(":")
        if not port:
            raise ValueError(f"endpoint {address!r} needs an explicit port")
        return "tcp", host, int(port)
    if "://" in address:
        raise ValueError(f"unsupported endpoint scheme in {address!r}")
    return "uds", address, None  # bare path reads as a Unix socket


class _UDSHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` socket."""

    def __init__(self, path: str, timeout: float | None = None) -> None:
        super().__init__("localhost", timeout=timeout)
        self._uds_path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.timeout)  # None: blocking, as created
            sock.connect(self._uds_path)
        except BaseException:
            sock.close()  # never assigned to self.sock: close() misses it
            raise
        self.sock = sock


class ServeClient:
    """One connection to a serve daemon; reconnects transparently."""

    def __init__(self, address: str, timeout: float | None = 60.0,
                 client_id: str | None = None) -> None:
        self.address = address
        self.kind, self._target, self._port = parse_endpoint(address)
        self.timeout = timeout
        self.client_id = client_id
        self._conn: http.client.HTTPConnection | None = None

    # -- transport --------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            if self.kind == "uds":
                self._conn = _UDSHTTPConnection(self._target,
                                                timeout=self.timeout)
            else:
                self._conn = http.client.HTTPConnection(
                    self._target, self._port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, method: str, path: str,
                 payload: dict | None = None) -> tuple[int, dict, dict]:
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        headers = {"Content-Type": "application/json"}
        if self.client_id:
            headers["X-Repro-Client"] = self.client_id
        for fresh in (False, True):
            if fresh:
                self.close()  # stale keep-alive connection; redial once
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (ConnectionRefusedError, FileNotFoundError) as exc:
                self.close()
                raise ServeUnavailable(
                    f"no server at {self.address}: {exc}") from exc
            except (http.client.HTTPException, OSError) as exc:
                self.close()
                if fresh:
                    raise ServeUnavailable(
                        f"lost server at {self.address}: {exc}") from exc
                continue
            try:
                parsed = json.loads(raw.decode("utf-8")) if raw else {}
            except ValueError as exc:
                raise ServeError(
                    f"non-JSON response ({response.status}): "
                    f"{raw[:200]!r}") from exc
            return response.status, parsed, dict(response.getheaders())
        raise AssertionError("unreachable")

    # -- API --------------------------------------------------------------

    def health(self) -> dict:
        status, payload, _headers = self._request("GET", "/healthz")
        if status != 200:
            raise ServeError(f"healthz returned {status}: {payload}")
        return payload

    def stats(self) -> dict:
        status, payload, _headers = self._request("GET", "/stats")
        if status != 200:
            raise ServeError(f"stats returned {status}: {payload}")
        return payload

    def shutdown(self) -> dict:
        status, payload, _headers = self._request("POST", "/shutdown")
        if status != 200:
            raise ServeError(f"shutdown returned {status}: {payload}")
        return payload

    @staticmethod
    def _spec_dict(spec: "WorkloadSpec | dict") -> dict:
        return spec.to_dict() if isinstance(spec, WorkloadSpec) else spec

    def submit(self, spec: "WorkloadSpec | dict",
               max_wait: float = 60.0) -> dict:
        """Submit one workload; returns its result envelope.

        Rejections are retried after the server's ``retry_after`` hint
        until ``max_wait`` elapses, then surface as
        :class:`ServeRejected`.  Application failures come back as the
        envelope (``status: 'failed'``) — the caller decides severity.
        """
        payload = {"spec": self._spec_dict(spec)}
        if self.client_id:
            payload["client"] = self.client_id
        deadline = time.monotonic() + max_wait
        while True:
            status, envelope, _headers = self._request(
                "POST", "/submit", payload)
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
        spec_dicts = [self._spec_dict(spec) for spec in specs]
        payload: dict = {"specs": spec_dicts}
        if self.client_id:
            payload["client"] = self.client_id
        status, parsed, _headers = self._request("POST", "/submit", payload)
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
            status, parsed, _headers = self._request(
                "POST", "/submit",
                {**payload, "specs": [spec_dicts[i] for i in retry]})
            if status != 200:
                raise ServeError(f"submit returned {status}: {parsed}")
            for slot, envelope in zip(retry, parsed["outcomes"]):
                outcomes[slot] = envelope
