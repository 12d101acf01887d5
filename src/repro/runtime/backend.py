"""Named executor backends: one switch for how a plan's units run.

:func:`make_backend` is the one place the name → executor mapping
lives; ``run_plan``, the harness, the serve daemon and the CLI all
resolve backends here.  ``jobs`` and ``queue_dir`` are the only inputs
that pick and size an executor:

``serial``
    Everything in the calling process, in plan order (the oracle).
``process``
    The lease executor with ``jobs`` local worker nodes over the work
    queue at ``queue_dir`` — or over a private temporary queue when
    None.  A named queue is shareable: externally launched ``repro
    worker`` processes, on this machine or any machine mounting the
    same filesystem, can join, and an interrupted queue can be resumed.
``auto``
    ``process`` when ``jobs`` > 1 or a ``queue_dir`` is given, else
    ``serial``.
"""

from __future__ import annotations

import os
from pathlib import Path

from .coordinator import MultiNodeExecutor
from .executor import Executor, RetryPolicy, SerialExecutor
from .faults import FaultInjector
from .workqueue import DEFAULT_LEASE_TTL

__all__ = ["BACKENDS", "make_backend"]

#: The closed set of backend names (``auto`` resolves to one of the rest).
BACKENDS = ("auto", "serial", "process")


def make_backend(name: str = "auto",
                 jobs: int | None = 1,
                 queue_dir: str | Path | None = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 policy: RetryPolicy | None = None,
                 injector: FaultInjector | None = None) -> Executor:
    """Build the executor for a backend name (see module docstring).

    ``jobs`` None means one node per core.
    """
    if name == "auto":
        parallel = jobs is None or jobs > 1 or queue_dir is not None
        name = "process" if parallel else "serial"
    if name == "serial":
        if queue_dir is not None:
            raise ValueError("the serial backend runs no work queue; "
                             "drop queue_dir or use the process backend")
        return SerialExecutor(policy=policy, injector=injector)
    if name != "process":
        raise ValueError(f"unknown backend {name!r}; choose from {BACKENDS}")
    nodes = (os.cpu_count() or 1) if jobs is None else jobs
    return MultiNodeExecutor(nodes=nodes, policy=policy, injector=injector,
                             queue_dir=queue_dir, lease_ttl=lease_ttl)
