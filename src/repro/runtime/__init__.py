"""Execution layer: workload specs, pluggable executors, result cache.

Separates *what* to simulate (:class:`WorkloadSpec`,
:class:`ExecutionPlan` — frozen, hashable, digestible descriptions) from
*how* it runs (:class:`SerialExecutor`, :class:`MultiNodeExecutor`) and
*whether it needs to run at all* (:class:`ResultCache`).
:func:`run_plan` ties the three together; ``repro.harness.sweep``, the
CLI, and the benchmark drivers all execute through it.

Execution is fault tolerant: failing units retry at once under a
:class:`RetryPolicy` (an attempt budget and a per-attempt timeout),
terminal failures surface as structured :class:`UnitFailure` records
instead of aborting the batch
(``keep_going``), a re-run against the same :class:`ResultCache`
resumes an interrupted sweep, and a deterministic
:class:`FaultInjector` exercises each recovery path in tests.

Fault tolerance extends past the process with one mechanism:
:func:`make_backend` selects serial execution or the lease executor,
where a :class:`MultiNodeExecutor` coordinates worker nodes over a
crash-safe filesystem :class:`WorkQueue` (atomic leases with heartbeat
TTLs, preemptive deadlines, work stealing, exclusive completion markers)
publishing into the queue's :class:`ResultCache` — so a SIGKILLed node
costs one lease reclaim, never a sweep.  ``jobs`` and ``queue_dir``
pick and size the executor: the ``process`` backend runs ``jobs``
nodes locally over a private queue, or over a named ``queue_dir`` that
other machines' nodes can join.
"""

from .backend import BACKENDS, make_backend
from .cache import ResultCache, default_cache_dir
from .coordinator import MultiNodeExecutor
from .executor import (
    Executor,
    RetryPolicy,
    SerialExecutor,
    execute_spec,
    load_graph,
    run_attempt,
    run_plan,
    run_unit,
)
from .faults import (
    FaultInjector,
    FaultRule,
    InjectedCrashError,
    InjectedFaultError,
    InjectedTransientError,
    UnitExecutionError,
    UnitFailure,
    UnitTimeoutError,
    failure_kind,
)
from .spec import (
    RESULT_SCHEMA_VERSION,
    ExecutionPlan,
    GraphRef,
    WorkloadSpec,
)
from .worker import NodeWorker, worker_main
from .workqueue import DEFAULT_LEASE_TTL, WorkQueue

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "GraphRef",
    "WorkloadSpec",
    "ExecutionPlan",
    "Executor",
    "SerialExecutor",
    "MultiNodeExecutor",
    "BACKENDS",
    "make_backend",
    "NodeWorker",
    "worker_main",
    "WorkQueue",
    "DEFAULT_LEASE_TTL",
    "execute_spec",
    "run_attempt",
    "run_unit",
    "load_graph",
    "run_plan",
    "ResultCache",
    "default_cache_dir",
    "RetryPolicy",
    "FaultInjector",
    "FaultRule",
    "InjectedFaultError",
    "InjectedTransientError",
    "InjectedCrashError",
    "UnitExecutionError",
    "UnitFailure",
    "UnitTimeoutError",
    "failure_kind",
]
