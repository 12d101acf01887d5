"""Named executor backends: one switch for how a plan's units run.

:func:`make_backend` is the one place the name → executor mapping
lives; ``run_plan``, the harness and the CLI all resolve backends here:

``serial``
    Everything in the calling process, in plan order (the oracle).
``process``
    The lease executor with ``jobs`` local worker nodes over a private
    temporary work queue (lease-based crash recovery, preemptive
    per-attempt deadlines).
``multinode``
    The same executor with ``nodes`` workers over a work queue rooted at
    ``queue_dir`` (or a private one when None), so externally launched
    ``repro worker`` processes — on this machine or any machine
    mounting the same filesystem — can join the sweep.
``auto``
    Serial when ``jobs`` <= 1, else process.
"""

from __future__ import annotations

import os
from pathlib import Path

from .coordinator import DEFAULT_NODE_RESTARTS, MultiNodeExecutor
from .executor import Executor, SerialExecutor
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
    """Build the executor for a backend name (see module docstring).

    ``jobs`` None means one node per core.
    """
    if name == "auto":
        name = "serial" if (jobs is not None and jobs <= 1) else "process"
    if name == "serial":
        return SerialExecutor(policy=policy, injector=injector)
    if name == "process":
        nodes = (os.cpu_count() or 1) if jobs is None else jobs
        queue_dir = None
    elif name != "multinode":
        raise ValueError(f"unknown backend {name!r}; choose from {BACKENDS}")
    return MultiNodeExecutor(nodes=nodes, policy=policy, injector=injector,
                             queue_dir=queue_dir, lease_ttl=lease_ttl,
                             node_restarts=node_restarts)
