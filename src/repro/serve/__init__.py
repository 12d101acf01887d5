"""Sweep-as-a-service: a long-running daemon over the runtime layer.

``repro.serve`` turns the spec/digest/cache/executor machinery into a
request/response service: an asyncio HTTP front-end (TCP and Unix
sockets) that normalizes workload requests to spec digests, answers warm
digests straight from the result cache, coalesces concurrent cold
requests for the same digest onto one simulation, sends each request's
remaining cold specs to long-lived worker nodes as one
:class:`~repro.runtime.ExecutionPlan`, and sheds overload with
token-bucket admission control (see DESIGN §14).

* :class:`ServeConfig` / :class:`ReproServer` / :func:`run_server` — the
  daemon (``repro serve``).
* :class:`ThreadedServer` — the same daemon on a background thread, for
  tests and the load generator.
* :class:`ServeClient` — the blocking client the CLI uses
  (``repro submit``, ``repro sweep --server``).
"""

from .admission import Admission, AdmissionController, TokenBucket
from .client import (
    ServeClient,
    ServeError,
    ServeRejected,
    ServeUnavailable,
    parse_endpoint,
)
from .server import ReproServer, ServeConfig, ThreadedServer, run_server

__all__ = [
    "Admission",
    "AdmissionController",
    "TokenBucket",
    "ServeClient",
    "ServeError",
    "ServeRejected",
    "ServeUnavailable",
    "parse_endpoint",
    "ReproServer",
    "ServeConfig",
    "ThreadedServer",
    "run_server",
]
