"""Named executor backends: one switch for how a plan's units run.

``run_sweep``/``run_plan`` historically chose between the serial and
process-pool executors by ``jobs``; the multi-node backend makes "how
to execute" a real axis.  :func:`make_backend` is the one place that
mapping lives — the harness and CLI resolve a backend *name* here
instead of hard-coding executor classes:

``serial``
    Everything in the calling process, in plan order.
``process``
    The process-pool executor (``jobs`` workers, shared memory machine,
    pool-level crash recovery).
``multinode``
    The coordinator/worker-fleet executor over a filesystem work queue
    (``nodes`` workers, lease-based work stealing, per-node manifests,
    sharded shared cache).  ``queue_dir`` may name a shared directory
    so externally launched ``repro worker`` processes — on this machine
    or any machine mounting the same filesystem — join the sweep.
``auto``
    The historical behaviour: serial when ``jobs`` <= 1, else process.
"""

from __future__ import annotations

from pathlib import Path

from .coordinator import DEFAULT_NODE_RESTARTS, MultiNodeExecutor
from .executor import Executor, ParallelExecutor, SerialExecutor
from .faults import FaultInjector
from .retry import RetryPolicy
from .workqueue import DEFAULT_LEASE_TTL

__all__ = ["BACKENDS", "make_backend"]

#: The closed set of backend names (``auto`` resolves to one of the rest).
BACKENDS = ("auto", "serial", "process", "multinode")


def make_backend(name: str = "auto",
                 jobs: int | None = 1,
                 nodes: int = 2,
                 policy: RetryPolicy | None = None,
                 injector: FaultInjector | None = None,
                 queue_dir: str | Path | None = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 node_restarts: int = DEFAULT_NODE_RESTARTS) -> Executor:
    """Build the executor for a backend name (see module docstring)."""
    if name == "auto":
        name = "serial" if (jobs is None or jobs <= 1) else "process"
    if name == "serial":
        return SerialExecutor(policy=policy, injector=injector)
    if name == "process":
        return ParallelExecutor(jobs, policy=policy, injector=injector)
    if name == "multinode":
        return MultiNodeExecutor(nodes=nodes, policy=policy,
                                 injector=injector, queue_dir=queue_dir,
                                 lease_ttl=lease_ttl,
                                 node_restarts=node_restarts)
    raise ValueError(f"unknown backend {name!r}; choose from {BACKENDS}")
