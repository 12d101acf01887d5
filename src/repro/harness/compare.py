"""BEST / PRED comparisons (Figure 6 and the Section VI headline numbers)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .sweep import SweepResult, is_dynamic_app

__all__ = ["Figure6Row", "figure6_rows", "FlexibilityStats",
           "flexibility_stats", "interdependence_rows"]


@dataclass
class Figure6Row:
    """SGR (DGR for CC) vs empirical BEST vs model PRED for one workload."""

    graph: str
    app: str
    reference: str  # 'SGR' or 'DGR'
    reference_time: float  # normalized to itself = 1.0
    best_code: str
    best_time: float  # relative to the reference
    pred_code: str
    pred_time: float  # relative to the reference

    @property
    def best_reduction(self) -> float:
        """Execution-time reduction of BEST vs the reference (0..1)."""
        return 1.0 - self.best_time


def figure6_rows(sweep: SweepResult) -> list[Figure6Row]:
    """Rows of Figure 6: every workload where SGR/DGR is not the best.

    Pruned rows that never simulated the reference config are skipped —
    with no SGR/DGR bar there is nothing to normalize the comparison
    against.  A prediction outside the simulated set reads as a ``nan``
    ``pred_time`` rather than a crash.
    """
    rows = []
    for row in sweep.rows_where_config_loses("SGR", "DGR"):
        reference = "DGR" if is_dynamic_app(row.app) else "SGR"
        cycles = {code: res.cycles for code, res in row.workload.results.items()}
        ref = cycles.get(reference)
        if ref is None:
            continue
        pred = cycles.get(row.predicted)
        rows.append(Figure6Row(
            graph=row.graph,
            app=row.app,
            reference=reference,
            reference_time=1.0,
            best_code=row.best,
            best_time=cycles[row.best] / ref,
            pred_code=row.predicted,
            pred_time=pred / ref if pred is not None else math.nan,
        ))
    return rows


@dataclass
class FlexibilityStats:
    """The Section VI 'need for flexibility' headline numbers."""

    total_workloads: int
    default_wins: int
    default_losses: int
    min_reduction: float
    max_reduction: float
    avg_reduction: float


def flexibility_stats(sweep: SweepResult) -> FlexibilityStats:
    """How much a flexible system saves over always-SGR (always-DGR for CC)."""
    losers = figure6_rows(sweep)
    reductions = [row.best_reduction for row in losers]
    return FlexibilityStats(
        total_workloads=len(sweep.rows),
        default_wins=len(sweep.rows) - len(losers),
        default_losses=len(losers),
        min_reduction=min(reductions) if reductions else 0.0,
        max_reduction=max(reductions) if reductions else 0.0,
        avg_reduction=(sum(reductions) / len(reductions)) if reductions else 0.0,
    )


def interdependence_rows(sweep: SweepResult) -> list[dict]:
    """Section IV-B / VI: how the best choice flips without DRFrlx.

    For every static-app workload, compare the full-space best against
    the best configuration available when DRFrlx is absent, plus the
    partial model's prediction.
    """
    rows = []
    for row in sweep.rows:
        if is_dynamic_app(row.app):
            continue
        cycles = {code: res.cycles
                  for code, res in row.workload.results.items()}
        restricted = {code: c for code, c in cycles.items()
                      if not code.endswith("R")}
        if not restricted:
            # A row simulating only DRFrlx configs (a hand-built or
            # pruned fragment) has no non-relaxed candidate to compare.
            continue
        best_restricted = min(restricted, key=restricted.get)
        flipped_direction = best_restricted[0] != row.best[0]
        rows.append({
            "Graph": row.graph,
            "App": row.app,
            "Best (full)": row.best,
            "Best (no DRFrlx)": best_restricted,
            "Direction flips": "yes" if flipped_direction else "no",
            "Partial model": row.predicted_partial,
            "Partial exact": "yes" if row.predicted_partial == best_restricted
            else "no",
        })
    return rows
