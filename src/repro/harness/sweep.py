"""Full evaluation sweep: the paper's 36 workloads x Figure 5 configs.

Produces one :class:`SweepRow` per workload carrying the normalized
execution times, the empirical best configuration, and the model's
prediction — everything Figures 5/6 and Table V compare.

Execution goes through :mod:`repro.runtime`: the sweep is described as an
:class:`~repro.runtime.ExecutionPlan`, run serially or on ``jobs`` local
worker nodes, and memoized unit-by-unit in a content-addressed
:class:`~repro.runtime.ResultCache` (``cache``), so repeated or
interrupted sweeps only simulate what is missing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable

from ..configs import figure5_configurations
from ..kernels.registry import KERNELS
from ..model import predict_configuration, predict_partial_configuration
from ..model.pruning import PruningPolicy, sweep_baseline
from ..obs import OBSERVER as _obs
from ..runtime import (
    DEFAULT_LEASE_TTL,
    ExecutionPlan,
    FaultInjector,
    GraphRef,
    ResultCache,
    RetryPolicy,
    UnitFailure,
    load_graph,
    make_backend,
    run_plan,
)
from ..sim.config import DEFAULT_SYSTEM, SystemConfig
from ..taxonomy import GraphProfile, profile_graph, profile_workload
from .runner import WorkloadResult

__all__ = ["SweepRow", "SweepResult", "run_sweep", "plan_sweep",
           "aggregate_sweep", "APPS", "PAPER_APPS", "GRAPHS",
           "is_dynamic_app"]

#: The full application matrix, derived from the kernel registry —
#: registering a new kernel automatically adds it to sweeps and the CLI.
APPS: tuple[str, ...] = tuple(KERNELS)
#: The paper's original Table III applications (a prefix of ``APPS``).
#: Paper-pinned artifacts — Table V comparisons against published
#: numbers, the perf-regression baseline — sweep exactly these six;
#: everything else defaults to the full matrix.
PAPER_APPS: tuple[str, ...] = ("PR", "SSSP", "MIS", "CLR", "BC", "CC")
GRAPHS: tuple[str, ...] = ("AMZ", "DCT", "EML", "OLS", "RAJ", "WNG")


def is_dynamic_app(app: str) -> bool:
    """Whether an application is dynamic-traversal (CC-like).

    Dynamic apps take the D-direction configuration space and the DG1
    baseline; the check consults the kernel registry rather than
    hardcoding app names so new dynamic kernels slot in untouched.
    """
    return KERNELS[app].traversal == "dynamic"


@dataclass
class SweepRow:
    """One workload's outcome across its Figure 5 configurations.

    A row may cover only a *subset* of the grid (a pruned sweep, a
    partially served response): :attr:`oracle_known` says whether
    :attr:`best` is the true best over the full Figure-5 set or merely
    the best of what was simulated, and consumers that compare against
    the oracle must check it.
    """

    graph: str
    app: str
    workload: WorkloadResult
    predicted: str
    predicted_partial: str
    #: The workload profile the row's predictions were made from,
    #: against the system its unit simulated on (None on hand-built
    #: rows).  It records why the model chose ``predicted``.
    profile: object | None = field(default=None, repr=False, compare=False)

    @property
    def best(self) -> str:
        """Fastest *simulated* configuration code (see ``oracle_known``)."""
        return self.workload.best_code

    @property
    def baseline(self) -> str:
        """The normalization bar (TG0, or DG1 for dynamic apps).

        Falls back to the app's Figure-5 bar when the workload result
        declared none (hand-built rows) — never to dict insertion order,
        which in a pruned or reordered result is an arbitrary config.
        """
        declared = self.workload.baseline
        if declared is not None:
            return declared
        return sweep_baseline(KERNELS[self.app].traversal)

    @property
    def baseline_simulated(self) -> bool:
        """Was the true normalization bar among the simulated configs?"""
        return self.baseline in self.workload.results

    def normalized(self) -> dict[str, float]:
        """Execution time of each configuration relative to the baseline.

        Rows whose true baseline was never simulated are NaN-tagged
        (every value ``nan``) rather than silently renormalized against
        whichever config happened to come first: a pruned sweep that
        dropped its baseline has no honest Figure-5 normalization.
        """
        if not self.baseline_simulated:
            return {code: math.nan for code in self.workload.results}
        return self.workload.normalized(self.baseline)

    @property
    def oracle_known(self) -> bool:
        """Does this row's simulated set cover the full Figure-5 grid?

        Only then is :attr:`best` the oracle best; in a restricted sweep
        it is merely best-of-simulated and ``prediction_exact`` /
        ``prediction_gap`` compare against a lower bound.
        """
        expected = {config.code for config in figure5_configurations(
            KERNELS[self.app].traversal)}
        return expected <= set(self.workload.results)

    @property
    def prediction_exact(self) -> bool:
        """Did the model pick the best *simulated* configuration?

        A prediction outside the simulated set can never be exact, so
        restricted sweeps count it as a miss — and an exact hit on a
        restricted row (``oracle_known`` False) only certifies
        best-of-subset, which reporting must label rather than count as
        a clean oracle hit (see :attr:`SweepResult.exact_predictions`).
        """
        return self.predicted == self.best

    @property
    def prediction_gap(self) -> float:
        """Slowdown of the predicted configuration vs the empirical best.

        ``nan`` when the predicted code was not among this workload's
        simulated configurations (a restricted sweep): the gap is
        unknowable there, and crashing Table-V generation over it would
        hide every measured row.  Reporting treats ``nan`` as a miss
        with no measurable gap.  When ``oracle_known`` is False a finite
        gap is measured against best-of-simulated and therefore
        *understates* the true oracle gap.
        """
        cycles = self.workload.results
        predicted = cycles.get(self.predicted)
        if predicted is None:
            return float("nan")
        return predicted.cycles / cycles[self.best].cycles


@dataclass
class SweepResult:
    """All rows of a sweep plus convenient aggregates.

    Under ``keep_going`` (the default) a sweep degrades gracefully:
    workloads that exhausted their retry budget are reported in
    ``failures`` (one :class:`~repro.runtime.UnitFailure` each) and
    simply have no row, so every aggregate is computed over the units
    that actually completed.
    """

    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def complete(self) -> bool:
        """Did every planned workload produce a row?"""
        return not self.failures

    def add(self, row: SweepRow) -> None:
        """Append a row, keeping the lookup index current."""
        self.rows.append(row)
        self._index[(row.graph, row.app)] = row

    def row(self, graph: str, app: str) -> SweepRow:
        """O(1) lookup of one workload's row.

        The index is rebuilt lazily whenever ``rows`` was mutated
        directly (tests and tools append to the list), so direct appends
        stay supported.
        """
        if len(self._index) != len(self.rows):
            self._index = {(r.graph, r.app): r for r in self.rows}
        try:
            return self._index[(graph, app)]
        except KeyError:
            raise KeyError(f"no row for ({graph}, {app})") from None

    @property
    def exact_predictions(self) -> int:
        """Rows where the model provably picked the oracle best.

        Restricted rows (``oracle_known`` False) are excluded: there
        "predicted == best-of-simulated" certifies only a lower bound,
        and counting it as a clean hit overstated Table-V accuracy on
        pruned sweeps.  Use :attr:`exact_of_simulated` for the weaker
        count.
        """
        return sum(row.prediction_exact and row.oracle_known
                   for row in self.rows)

    @property
    def exact_of_simulated(self) -> int:
        """Rows where the model picked the best *simulated* config."""
        return sum(row.prediction_exact for row in self.rows)

    @property
    def oracle_unknown_rows(self) -> int:
        """Rows whose simulated set does not cover the full grid."""
        return sum(not row.oracle_known for row in self.rows)

    def rows_where_config_loses(self, code: str = "SGR",
                                dynamic_code: str = "DGR") -> list:
        """Workloads where the default push config is not the best.

        This is Figure 6's selection: SGR for static apps, DGR for
        dynamic-traversal apps (CC).
        """
        losers = []
        for row in self.rows:
            reference = dynamic_code if is_dynamic_app(row.app) else code
            if row.best != reference:
                losers.append(row)
        return losers


def _resolve_cache(
    cache: ResultCache | str | Path | None,
) -> ResultCache | None:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


@lru_cache(maxsize=8)
def _graph_profile(ref: GraphRef, system: SystemConfig) -> GraphProfile:
    """``ref``'s profile against ``system``, memoized per process: a
    pruned sweep's planning and aggregation profile the same graphs."""
    return profile_graph(load_graph(ref), system)


def plan_sweep(
    graphs: Iterable[str],
    apps: Iterable[str],
    max_iters: int | None = None,
    seed: int = 0,
    scales: dict[str, int] | None = None,
    base_system: SystemConfig = DEFAULT_SYSTEM,
    prune: PruningPolicy | None = None,
) -> tuple[ExecutionPlan, dict | None]:
    """Build the sweep's :class:`ExecutionPlan`, optionally pruned.

    The full grid comes from :meth:`ExecutionPlan.for_sweep`.  With
    ``prune`` set, each graph is profiled once against the system its
    first unit simulates on, each workload's Figure-5 config space is
    ranked by the policy (tree first, then analytic cost), and the unit
    is restricted to the selected subset with its Figure-5 baseline
    pinned (TG0 / DG1), so rows stay normalizable;
    :class:`~repro.runtime.WorkloadSpec` rejects a subset that dropped
    its baseline.  Returns ``(plan, subsets)`` where
    ``subsets`` maps ``(graph, app)`` to the kept codes (None for an
    unpruned plan).

    Every consumer that must agree on unit digests — local execution
    and ``sweep --server`` submission — builds its plan here, so a
    pruned sweep hits the cache and dedups exactly like a full one.
    Emits one ``sweep.pruned`` event per restricted workload.
    """
    graphs = tuple(graphs)
    apps = tuple(apps)
    plan = ExecutionPlan.for_sweep(
        graphs, apps,
        max_iters=max_iters,
        seed=seed,
        scales=scales,
        base_system=base_system,
    )
    if prune is None:
        return plan, None
    subsets: dict = {}
    units = []
    specs = iter(plan)
    for graph_key in graphs:
        graph_profile = None
        for app in apps:
            spec = next(specs)
            if graph_profile is None:
                graph_profile = _graph_profile(spec.graph, spec.system)
            profile = profile_workload(graph_profile, app)
            subset = prune.subset(profile, spec.system)
            subsets[(graph_key, app)] = subset
            units.append(replace(
                spec, configs=subset,
                baseline=sweep_baseline(KERNELS[spec.app].traversal)))
            _obs.emit(
                "sweep.pruned", graph=graph_key, app=app,
                k=prune.k, explore=prune.explore,
                kept=list(subset),
                dropped=[code for code in spec.configs
                         if code not in subset])
    return ExecutionPlan(units=tuple(units)), subsets


def run_sweep(
    graphs: Iterable[str] = GRAPHS,
    apps: Iterable[str] = APPS,
    max_iters: int | None = None,
    seed: int = 0,
    scales: dict[str, int] | None = None,
    base_system: SystemConfig = DEFAULT_SYSTEM,
    progress: Callable[[str], None] | None = None,
    jobs: int | None = 1,
    cache: ResultCache | str | Path | None = None,
    policy: RetryPolicy | None = None,
    injector: FaultInjector | None = None,
    keep_going: bool = True,
    backend: str = "auto",
    queue_dir: str | Path | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    prune_k: int | None = None,
    explore: int = 0,
) -> SweepResult:
    """Run the full evaluation sweep.

    Each graph is generated at its default simulation scale with caches
    scaled to match, so taxonomy classes — and hence model predictions —
    equal the full-size graphs' (see DESIGN.md).  ``max_iters`` caps the
    simulated iterations per workload (None = each kernel's default).

    ``jobs`` > 1 fans the workloads across that many worker nodes;
    ``cache`` (a :class:`ResultCache` or a directory path) skips units
    whose results are already on disk.  Both paths produce results
    identical to the serial, uncached sweep.

    Failure semantics (see :func:`repro.runtime.run_plan`): units retry
    at once per ``policy``; under ``keep_going`` (default) a sweep with failed
    units still returns, reporting them in ``SweepResult.failures``,
    while ``keep_going=False`` raises
    :class:`~repro.runtime.UnitExecutionError` on the first terminal
    failure.  Re-running an interrupted sweep against the same
    ``cache`` resumes it, re-simulating only what is missing or failed.

    ``backend``, ``jobs``, ``queue_dir`` and ``lease_ttl`` go to one
    :func:`repro.runtime.make_backend` call.  Under ``auto`` a
    ``queue_dir`` selects the lease executor even at ``jobs`` 1: its
    ``jobs`` nodes work over a crash-safe queue rooted there, which
    external ``repro worker`` nodes can join and an interrupted sweep
    can resume.

    ``prune_k`` switches on prediction-guided pruning: each workload
    simulates only its model-ranked top-``k`` configurations plus
    ``explore`` seeded exploration picks (and always the Figure-5
    baseline) instead of the full grid — see
    :class:`repro.model.pruning.PruningPolicy`.  Pruned rows have
    ``oracle_known`` False.
    """
    graphs = tuple(graphs)
    apps = tuple(apps)
    prune = None
    if prune_k is not None:
        prune = PruningPolicy(k=prune_k, explore=explore, seed=seed)

    _obs.emit("sweep.phase", name="plan", boundary="begin")
    plan, _ = plan_sweep(
        graphs, apps,
        max_iters=max_iters,
        seed=seed,
        scales=scales,
        base_system=base_system,
        prune=prune,
    )
    _obs.emit("sweep.phase", name="plan", boundary="end")

    _obs.emit("sweep.phase", name="execute", boundary="begin")
    executor = make_backend(backend, jobs=jobs, queue_dir=queue_dir,
                            lease_ttl=lease_ttl, policy=policy,
                            injector=injector)
    try:
        workloads = run_plan(
            plan,
            jobs=jobs,
            cache=_resolve_cache(cache),
            executor=executor,
            progress=progress,
            policy=policy,
            injector=injector,
            keep_going=keep_going,
        )
    finally:
        executor.close()
    _obs.emit("sweep.phase", name="execute", boundary="end")

    return aggregate_sweep(plan, workloads, graphs, apps)


def aggregate_sweep(
    plan: Iterable,
    workloads: Iterable,
    graphs: Iterable[str],
    apps: Iterable[str],
) -> SweepResult:
    """Fold plan-ordered workload outcomes into a :class:`SweepResult`.

    ``plan`` and ``workloads`` are parallel sequences in ``graphs`` x
    ``apps`` order — exactly what :func:`repro.runtime.run_plan` returns
    for :meth:`ExecutionPlan.for_sweep`, but also what a serve client
    reassembles from result envelopes (``repro sweep --server``), which
    is why this lives apart from :func:`run_sweep`: aggregation must not
    care where the simulations ran.  Failures
    (:class:`~repro.runtime.UnitFailure`) land in ``failures`` and leave
    no row.  Each graph is profiled once, against the system its first
    completed unit simulated on (``spec.system``), so a row's prediction
    sees the caches the simulator used.

    Both sequences must cover the full ``graphs`` x ``apps`` grid; a
    short ``workloads`` (a truncated ``sweep --server`` response stream)
    or a short ``plan`` raises a ``ValueError`` naming the expected and
    received unit counts rather than leaking a bare ``StopIteration``
    out of the aggregation loop.
    """
    graphs = tuple(graphs)
    apps = tuple(apps)
    plan_units = list(plan)
    outcomes = list(workloads)
    expected = len(graphs) * len(apps)
    if len(plan_units) != expected or len(outcomes) != expected:
        raise ValueError(
            f"aggregate_sweep: expected {expected} unit(s) for "
            f"{len(graphs)} graph(s) x {len(apps)} app(s), received "
            f"{len(plan_units)} plan unit(s) and {len(outcomes)} "
            f"workload outcome(s)")
    _obs.emit("sweep.phase", name="aggregate", boundary="begin")
    result = SweepResult()
    units = iter(zip(plan_units, outcomes))
    for graph_key in graphs:
        graph_profile = None
        for app in apps:
            spec, workload = next(units)
            if isinstance(workload, UnitFailure):
                result.failures.append(workload)
                continue
            if graph_profile is None:
                graph_profile = _graph_profile(spec.graph, spec.system)
            workload_profile = profile_workload(graph_profile, app)
            predicted = predict_configuration(workload_profile)
            partial = predict_partial_configuration(workload_profile)
            result.add(SweepRow(
                graph=graph_key,
                app=app,
                workload=workload,
                predicted=predicted.code,
                predicted_partial=partial.code,
                profile=workload_profile,
            ))
    _obs.emit("sweep.phase", name="aggregate", boundary="end")
    return result
