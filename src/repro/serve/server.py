"""Sweep-as-a-service: the asyncio ``repro.serve`` daemon.

A long-running front-end over the runtime layer (specs, digests,
executors, result cache): clients POST serialized
:class:`~repro.runtime.WorkloadSpec` payloads over HTTP — plain TCP or a
Unix-domain socket — and get back the same ``WorkloadResult`` dicts the
cache stores.  The daemon's whole job is making repeated queries cheap
and overload boring:

* **Normalization** — every request the hot map below misses becomes a
  spec *digest*, the one key the entire runtime already shares (cache
  entries, leases).
* **Cache fast path** — a spec answered from the cache before is
  answered again from memory: a bounded LRU map from the spec's
  canonical JSON text to its encoded response envelope, so a repeat
  costs one body parse and one dictionary lookup, with no validation,
  digest, file read or re-encode.  Any other spec with an on-disk entry
  is answered by :meth:`~repro.runtime.ResultCache.load` (no simulation
  pool), which fails closed: an entry that does not parse into a
  ``WorkloadResult`` is deleted and the spec simulates again.  A valid
  entry's encoded envelope enters the map when the request carried the
  spec's own canonical text.
* **In-flight dedup** — cold requests register a future keyed by digest;
  late arrivals for the same digest *coalesce* onto that future instead
  of simulating twice.  One simulation, N answers.
* **One plan per request** — each ``/submit`` resolves its specs
  without awaiting, in body order, and the ones it newly admits leave
  at once as one :class:`~repro.runtime.ExecutionPlan`, run from one of
  :data:`DISPATCH_WORKERS` threads by worker *processes* that live as
  long as the daemon (one executor per dispatch thread), so neither the
  event loop nor its interpreter lock ever runs simulation.  There is no
  batch window: every client sends a request's specs in one body.
* **Admission control** — a capacity bound on in-flight simulation units
  plus per-client token buckets (:mod:`repro.serve.admission`, with its
  default bounds); cold work beyond either budget is rejected *fast*
  with a ``retry_after`` hint (HTTP 429 for single submits) while cache
  hits keep flowing.

Failure semantics: a unit the backend fails or quarantines resolves its
future with the structured :class:`~repro.runtime.UnitFailure` — every
coalesced waiter receives the same failure envelope, and the digest
leaves the in-flight table so a later request may retry it cold.

Everything observable goes through :mod:`repro.obs` (``serve.*`` events,
an in-flight-units gauge) and a plain ``/stats`` counter dict that works
with observability off.
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from ..obs import OBSERVER as _obs
from ..runtime import (
    ExecutionPlan,
    ResultCache,
    RetryPolicy,
    UnitFailure,
    WorkloadSpec,
    make_backend,
    run_plan,
)
from .admission import AdmissionController

__all__ = ["ServeConfig", "ReproServer", "ThreadedServer", "run_server"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}

#: Largest request body the daemon reads; a bigger Content-Length is
#: answered with 413 before any of the body is read.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Most header lines one request (or, in ``ServeClient``, one response)
#: may carry; one more, or a header line past the stream reader's limit,
#: is answered with 431 and the connection is closed (a request line past
#: the limit gets 414).
MAX_HEADERS = 100

#: Seconds a request may take from its first byte to its last; a client
#: still sending after that (a slowloris) is answered with 408 and the
#: connection is closed.  Idle keep-alive time between requests is not
#: limited.  A ``call_later`` timer fails the reader: no task per read.
REQUEST_READ_TIMEOUT = 10.0

#: Most encoded cache-hit envelopes the daemon keeps in memory, keyed by
#: the spec's canonical JSON text; past it the least recently used
#: leaves first.  A key is stored only when it is the text of a valid
#: spec (``WorkloadSpec.to_dict`` round-trips it), so padding a spec
#: with fields the reader ignores cannot grow an entry.  An entry of the
#: small-system serve grid takes about 3.5 KB (key, envelope and digest),
#: so a full map holds about 15 MB.  4096 is a chosen bound, not a
#: measured working set: the serve benchmark repeats four specs.
HOT_ENTRIES = 4096

#: Threads that dispatch cold plans; each borrows one executor of
#: ``jobs`` worker nodes for its plan's run, so the daemon forks
#: ``DISPATCH_WORKERS * jobs`` nodes at start-up.
DISPATCH_WORKERS = 2

#: Client id of a request that names none (no ``client`` field and no
#: ``X-Repro-Client`` header): such requests share one token bucket.
DEFAULT_CLIENT = "anon"


@dataclass
class ServeConfig:
    """Everything the daemon needs, as one value (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int | None = None          # None: no TCP listener; 0: ephemeral
    uds: str | Path | None = None    # None: no Unix-socket listener
    cache_dir: str | Path | None = None
    backend: str = "auto"            # make_backend name for cold plans
    jobs: int = 1
    policy: RetryPolicy | None = None

    def __post_init__(self) -> None:
        if self.port is None and self.uds is None:
            raise ValueError("serve needs a TCP port and/or a UDS path")


class _BadRequest(Exception):
    """Malformed HTTP or an unusable spec payload (a 4xx response)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class ReproServer:
    """The daemon: listeners, dedup table, dispatch, admission, stats."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.cache = ResultCache(config.cache_dir)
        self.admission = AdmissionController()
        self._inflight: dict[str, asyncio.Future] = {}
        # canonical spec text -> (digest, label, encoded hit envelope)
        self._hot: OrderedDict[str, tuple[str, str, bytes]] = OrderedDict()
        self._stop_event: asyncio.Event | None = None
        self._servers: list[asyncio.AbstractServer] = []
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._pool: ThreadPoolExecutor | None = None
        # One executor per dispatch thread; a plan borrows one for its run.
        self._executors: queue.SimpleQueue | None = None
        self._started_at: float | None = None
        self.endpoints: list[str] = []
        self.stats = {
            "requests": 0,
            "hits": 0,
            "misses": 0,
            "coalesced": 0,
            "admitted": 0,
            "rejected": 0,
            "simulated": 0,
            "failed": 0,
            "batches": 0,
        }

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> list[str]:
        """Open the listeners and fork the nodes; returns the endpoints."""
        self._stop_event = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=DISPATCH_WORKERS,
            thread_name_prefix="repro-serve")
        self._executors = queue.SimpleQueue()
        self.endpoints = []
        try:
            if self.config.uds is not None:
                path = Path(self.config.uds)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.unlink(missing_ok=True)  # stale socket from a past run
                server = await asyncio.start_unix_server(
                    self._handle_connection, path=str(path))
                self._servers.append(server)
                self.endpoints.append(f"unix://{path}")
            if self.config.port is not None:
                server = await asyncio.start_server(
                    self._handle_connection, host=self.config.host,
                    port=self.config.port)
                self._servers.append(server)
                host, port = server.sockets[0].getsockname()[:2]
                if ":" in host:  # IPv6: bracketed, as parse_endpoint reads
                    host = f"[{host}]"
                self.endpoints.append(f"http://{host}:{port}")
            # Cold plans simulate in worker processes that live as long
            # as the daemon, so this process only parses, reads the cache
            # and routes.  The nodes fork here, on the event-loop thread
            # and before any dispatch thread exists, so no fork snapshots
            # a lock another thread holds.
            backend = ("process" if self.config.backend == "auto"
                       else self.config.backend)
            for _ in range(DISPATCH_WORKERS):
                executor = make_backend(backend, jobs=self.config.jobs,
                                        policy=self.config.policy)
                executor.start()
                self._executors.put(executor)
        except BaseException:
            await self.stop()  # closes listeners, socket file and nodes
            raise
        self._started_at = time.monotonic()
        _obs.emit("serve.started", endpoints=list(self.endpoints))
        return self.endpoints

    def request_stop(self) -> None:
        """Ask the daemon to stop (safe from any event-loop callback)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop`, then tear down cleanly."""
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Close listeners, drain in-flight plans, stop the nodes."""
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        if self._dispatch_tasks:
            await asyncio.gather(*self._dispatch_tasks,
                                 return_exceptions=True)
        # Idle keep-alive connections sit in readline forever; cancel
        # them (after the plans drained, so no response is cut short).
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._executors is not None:
            while not self._executors.empty():
                self._executors.get().close()
            self._executors = None
        if self._started_at is not None:
            _obs.emit("serve.stopped", requests=self.stats["requests"],
                      uptime=time.monotonic() - self._started_at)
        if self.config.uds is not None:
            Path(self.config.uds).unlink(missing_ok=True)

    # -- request handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                close = True  # until a request parses, framing is lost
                try:
                    request = await self._read_request(reader)
                    if request is None:
                        break
                    method, target, headers, body = request
                    close = headers.get("connection", "").lower() == "close"
                    status, payload, extra = await self._route(
                        method, target, headers, body)
                except _BadRequest as exc:
                    status, payload, extra = (
                        exc.status, _encode({"error": str(exc)}), ())
                except (asyncio.IncompleteReadError, ConnectionError):
                    raise  # the client went away; handled below
                except Exception as exc:  # never kill the connection loop
                    status, payload, extra = (
                        500,
                        _encode({"error": f"{type(exc).__name__}: {exc}"}),
                        ())
                writer.write(_render_response(status, payload, extra,
                                              keep_alive=not close))
                await writer.drain()
                if close:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            pass  # client went away mid-request; nothing to answer
        except TimeoutError:
            pass  # drain re-raises a missed read deadline after its 408
        except asyncio.CancelledError:
            pass  # server shutdown cancels idle keep-alive connections
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    @classmethod
    async def _read_request(
        cls, reader: asyncio.StreamReader,
    ) -> tuple[str, str, dict, bytes] | None:
        """Parse one HTTP/1.1 request; None on a clean EOF.

        The wait for a request's first byte is unbounded (an idle
        keep-alive connection); the rest of the request must arrive
        within :data:`REQUEST_READ_TIMEOUT`.
        """
        first = await reader.read(1)
        if not first:
            return None
        deadline = asyncio.get_running_loop().call_later(
            REQUEST_READ_TIMEOUT, reader.set_exception, TimeoutError())
        try:
            request = await cls._read_rest(reader, first)
        except TimeoutError:
            pass
        finally:
            deadline.cancel()
        # Also set by a timer that fired after the last bytes came in
        # but before the read resumed: that request is late too.
        if isinstance(reader.exception(), TimeoutError):
            raise _BadRequest(
                f"request not completed within {REQUEST_READ_TIMEOUT:g}s",
                status=408)
        return request

    @staticmethod
    async def _read_rest(
        reader: asyncio.StreamReader, first: bytes,
    ) -> tuple[str, str, dict, bytes]:
        """The request after its first byte: line, headers and body."""
        try:
            line = first + await reader.readline()
        except ValueError:  # the line overran the reader's limit
            raise _BadRequest("request line too long", status=414) from None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line {line!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            try:
                raw = await reader.readline()
            except ValueError:  # the line overran the reader's limit
                raise _BadRequest("header line too long",
                                  status=431) from None
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest(f"more than {MAX_HEADERS} header lines",
                              status=431)
        if "transfer-encoding" in headers:
            # The body's framing is unknown, so the connection cannot go
            # on: answer once and close rather than parse chunks as the
            # next request.
            raise _BadRequest("Transfer-Encoding is not supported; send "
                              "a Content-Length", status=501)
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            raise _BadRequest("Content-Length is not an integer") from None
        if length < 0:
            raise _BadRequest("Content-Length is negative")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(f"body of {length} bytes exceeds the "
                              f"{MAX_BODY_BYTES}-byte limit", status=413)
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _route(self, method: str, target: str, headers: dict,
                     body: bytes) -> tuple[int, bytes, tuple]:
        target = target.split("?", 1)[0]
        if target == "/healthz":
            if method != "GET":
                return 405, _encode({"error": "GET only"}), ()
            return 200, _encode({"status": "ok"}), ()
        if target == "/stats":
            if method != "GET":
                return 405, _encode({"error": "GET only"}), ()
            return 200, _encode(self._stats_payload()), ()
        if target == "/shutdown":
            if method != "POST":
                return 405, _encode({"error": "POST only"}), ()
            loop = asyncio.get_running_loop()
            loop.call_soon(self.request_stop)
            return 200, _encode({"status": "stopping"}), ()
        if target == "/submit":
            if method != "POST":
                return 405, _encode({"error": "POST only"}), ()
            return await self._handle_submit(headers, body)
        return 404, _encode({"error": f"unknown path {target!r}"}), ()

    def _parse_submit(self, headers: dict,
                      body: bytes) -> tuple[list, bool, str]:
        """Decode a /submit body into units + (is_single, client_id).

        Each unit is ``(key, hot, spec)``, ``key`` being the spec's
        canonical JSON text.  A key in the hot map comes back with its
        entry as ``hot`` and is not validated again (only validated
        specs ever enter the map); any other spec is validated into a
        :class:`WorkloadSpec`, and one bad spec fails the whole body.
        """
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError, RecursionError) as exc:
            raise _BadRequest(f"body is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _BadRequest("body must be a JSON object")
        client = str(payload.get("client")
                     or headers.get("x-repro-client")
                     or DEFAULT_CLIENT)
        if "spec" in payload:
            raw_specs, single = [payload["spec"]], True
        elif "specs" in payload:
            raw_specs, single = payload["specs"], False
            if not isinstance(raw_specs, list) or not raw_specs:
                raise _BadRequest("'specs' must be a non-empty list")
        else:
            raise _BadRequest("body needs 'spec' or 'specs'")
        units = []
        for raw in raw_specs:
            key = _canonical(raw)
            hot = self._hot.get(key)
            if hot is not None:
                units.append((key, hot, None))
                continue
            try:
                units.append((key, None, WorkloadSpec.from_dict(raw)))
            except Exception as exc:
                raise _BadRequest(f"bad workload spec: {exc}") from None
        return units, single, client

    async def _handle_submit(self, headers: dict,
                             body: bytes) -> tuple[int, bytes, tuple]:
        units, single, client = self._parse_submit(headers, body)
        # Hot hits answer before anything else, so no disk hit below can
        # evict an entry they read; the rest resolve in body order.
        parts = [self._hot_hit(key, hot, client) if hot is not None
                 else None for key, hot, _spec in units]
        rejected = None
        waits = []  # (index, spec, source, future) still to settle
        plan = []   # (spec, future) this request simulates
        try:
            for index, (key, _hot, spec) in enumerate(units):
                if parts[index] is not None:
                    continue
                resolved = self._handle_spec(spec, client, plan)
                if isinstance(resolved, tuple):
                    waits.append((index, spec, *resolved))
                    continue
                parts[index] = _encode(resolved)
                if resolved["status"] == "rejected":
                    rejected = resolved
                elif resolved["source"] == "cache":
                    self._remember(key, spec, resolved, parts[index])
        finally:
            # Even if a later spec raised, every registered future must
            # settle, or requests coalescing onto it would wait forever.
            if plan:
                self._dispatch(plan)
        for index, spec, source, future in waits:
            outcome = await asyncio.shield(future)
            parts[index] = _encode(
                self._envelope(spec, spec.digest(), outcome, source))
        if not single:
            return 200, b'{"outcomes": [' + b", ".join(parts) + b"]}", ()
        if rejected is not None:
            retry_after = rejected["retry_after"]
            return 429, parts[0], (
                ("Retry-After", f"{max(retry_after, 0.0):.3f}"),)
        return 200, parts[0], ()

    def _hot_hit(self, key: str, hot: tuple[str, str, bytes],
                 client: str) -> bytes:
        """Answer a spec from the hot map: counted like a disk hit."""
        digest, label, encoded = hot
        self._hot.move_to_end(key)
        self.stats["requests"] += 1
        _obs.emit("serve.request", digest=digest, label=label,
                  client=client)
        self.stats["hits"] += 1
        _obs.emit("serve.hit", digest=digest, label=label)
        return encoded

    def _remember(self, key: str, spec: WorkloadSpec, envelope: dict,
                  encoded: bytes) -> None:
        """Keep a disk hit's encoded envelope, evicting the LRU entry.

        Only a key that is the spec's own canonical text enters: a body
        carrying fields ``from_dict`` ignores is answered but not kept.
        """
        if key != spec.canonical():
            return
        self._hot[key] = (envelope["digest"], envelope["label"], encoded)
        self._hot.move_to_end(key)
        if len(self._hot) > HOT_ENTRIES:
            self._hot.popitem(last=False)

    def _handle_spec(self, spec: WorkloadSpec, client: str,
                     plan: list) -> dict | tuple[str, asyncio.Future]:
        """One cold-path spec, resolved without awaiting.

        Returns the envelope of a cache hit or a rejection, or the
        ``(source, future)`` its outcome settles: a simulation already in
        flight (``coalesced``), or a new one appended to ``plan``
        (``simulated``).
        """
        digest = spec.digest()
        self.stats["requests"] += 1
        _obs.emit("serve.request", digest=digest, label=spec.label,
                  client=client)
        future = self._inflight.get(digest)
        if future is not None:
            # Someone is already simulating this digest: join them.
            self.stats["coalesced"] += 1
            _obs.emit("serve.coalesced", digest=digest, label=spec.label)
            return "coalesced", future
        # The hot map's one fill path.  ``load`` fails closed: an entry
        # that does not parse into a result is deleted and simulated
        # again, never answered or kept.
        cached = self.cache.load(spec)
        if cached is not None:
            self.stats["hits"] += 1
            _obs.emit("serve.hit", digest=digest, label=spec.label)
            return self._envelope(spec, digest, cached, "cache")
        self.stats["misses"] += 1
        _obs.emit("serve.miss", digest=digest, label=spec.label)
        admission = self.admission.try_admit(client)
        if not admission:
            self.stats["rejected"] += 1
            _obs.emit("serve.rejected", digest=digest, label=spec.label,
                      client=client, reason=admission.reason,
                      retry_after=admission.retry_after)
            return {"digest": digest, "label": spec.label,
                    "status": "rejected", "reason": admission.reason,
                    "retry_after": admission.retry_after}
        self.stats["admitted"] += 1
        _obs.emit("serve.admitted", digest=digest, label=spec.label,
                  client=client,
                  inflight=self.admission.inflight_units)
        future = asyncio.get_running_loop().create_future()
        self._inflight[digest] = future
        plan.append((spec, future))
        return "simulated", future

    @staticmethod
    def _envelope(spec: WorkloadSpec, digest: str, outcome,
                  source: str) -> dict:
        if isinstance(outcome, UnitFailure):
            return {"digest": digest, "label": spec.label,
                    "status": "failed", "source": source,
                    "failure": outcome.to_dict()}
        return {"digest": digest, "label": spec.label, "status": "ok",
                "source": source, "result": outcome.to_dict()}

    # -- cold-path dispatch -----------------------------------------------

    def _dispatch(self, plan: list) -> None:
        """Send one request's admitted specs to the nodes as one plan."""
        self.stats["batches"] += 1
        _obs.emit("serve.batch", units=len(plan))
        self._update_gauges()
        task = asyncio.create_task(self._settle(plan))
        self._dispatch_tasks.add(task)
        task.add_done_callback(self._dispatch_tasks.discard)

    async def _settle(self, plan: list) -> None:
        """Run one plan on a dispatch thread; settle every future."""
        specs = [spec for spec, _future in plan]
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._pool, self._run_batch, specs)
            error: BaseException | None = None
        except BaseException as exc:
            outcomes, error = None, exc
        self.admission.release(len(plan))
        for index, (spec, future) in enumerate(plan):
            self._inflight.pop(spec.digest(), None)
            if future.done():  # a cancelled shutdown race; nothing to do
                continue
            if error is not None:
                future.set_exception(
                    RuntimeError(f"batch dispatch failed: {error}"))
            else:
                outcome = outcomes[index]
                key = ("failed" if isinstance(outcome, UnitFailure)
                       else "simulated")
                self.stats[key] += 1
                future.set_result(outcome)
        self._update_gauges()

    def _run_batch(self, specs: list[WorkloadSpec]) -> list:
        """Dispatch-thread body: one ExecutionPlan through run_plan.

        ``run_plan`` re-checks the cache per unit (a digest another plan
        finished moments ago restores instead of re-simulating).
        """
        plan = ExecutionPlan(units=tuple(specs))
        executor = self._executors.get()
        try:
            return run_plan(plan, cache=self.cache, executor=executor,
                            policy=self.config.policy, keep_going=True)
        finally:
            self._executors.put(executor)

    # -- introspection ----------------------------------------------------

    def _update_gauges(self) -> None:
        if not _obs.enabled:
            return
        _obs.metrics.gauge("serve.inflight_units").set(
            self.admission.inflight_units)

    def _stats_payload(self) -> dict:
        dropped = (sum(sink.dropped for sink in _obs.sinks)
                   if _obs.enabled else 0)
        return {
            **self.stats,
            "inflight_units": self.admission.inflight_units,
            "inflight_digests": len(self._inflight),
            "cache": {"hits": self.cache.hits,
                      "misses": self.cache.misses,
                      "stores": self.cache.stores,
                      "entries": len(self.cache)},
            "obs_dropped": dropped,
            "uptime": (time.monotonic() - self._started_at
                       if self._started_at is not None else 0.0),
            "endpoints": list(self.endpoints),
        }


def _canonical(raw) -> str:
    """A spec's hot-map key: its JSON text with sorted keys, no spaces."""
    return json.dumps(raw, sort_keys=True, separators=(",", ":"))


def _encode(payload: dict) -> bytes:
    """A response body: every body the daemon sends is encoded here."""
    return json.dumps(payload).encode("utf-8")


def _render_response(status: int, body: bytes, extra: tuple = (),
                     keep_alive: bool = True) -> bytes:
    head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}"]
    head.extend(f"{name}: {value}" for name, value in extra)
    head.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


class ThreadedServer:
    """A ReproServer on its own thread + event loop (tests, loadgen).

    ``start`` blocks until the listeners are open and returns the
    endpoints; ``stop`` requests shutdown and joins the thread.  Any
    startup failure re-raises in the caller.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.server: ReproServer | None = None
        self.endpoints: list[str] = []
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    def start(self) -> list[str]:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve thread failed to start in time")
        if self._error is not None:
            raise self._error
        return self.endpoints

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self.server = ReproServer(self.config)
        self._loop = asyncio.get_running_loop()
        try:
            self.endpoints = await self.server.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self.server.serve_until_stopped()

    def stop(self) -> None:
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ThreadedServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_server(config: ServeConfig,
               announce=print) -> None:
    """Run the daemon in this process until SIGINT/SIGTERM (CLI body)."""
    import signal

    async def _main() -> None:
        server = ReproServer(config)
        endpoints = await server.start()
        for endpoint in endpoints:
            announce(f"serving on {endpoint}")
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or exotic platform
        await server.serve_until_stopped()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
