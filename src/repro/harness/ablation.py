"""Ablation studies over the specialization model.

Two studies the paper's methodology invites (Section V-A notes the
thresholds were chosen empirically; Section IV motivates each feature):

* **Threshold sensitivity** — re-run the decision tree under perturbed
  volume/reuse/imbalance thresholds and track prediction accuracy against
  a sweep's empirical best configurations.
* **Feature ablation** — neutralize one model input at a time (pin it to
  a fixed value) and measure the accuracy drop, quantifying how much each
  of the six parameters contributes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from ..model import predict_configuration
from ..runtime import GraphRef, load_graph
from ..sim.config import scaled_system
from ..taxonomy import (
    DEFAULT_THRESHOLDS,
    Level,
    Thresholds,
    profile_graph,
    profile_workload,
)
from ..taxonomy.algorithmic import (
    APP_PROPERTIES,
    AlgorithmicProperties,
    Control,
    Information,
    Traversal,
)
from ..taxonomy.profile import GraphProfile, WorkloadProfile
from .sweep import SweepResult

__all__ = ["AblationOutcome", "threshold_sensitivity", "feature_ablation",
           "graph_profiles_for_sweep"]


@dataclass(frozen=True)
class AblationOutcome:
    """Accuracy of one model variant against a sweep's empirical bests."""

    label: str
    exact: int
    within_5pct: int
    total: int
    mean_gap: float

    def as_row(self) -> dict:
        return {
            "Variant": self.label,
            "Exact": f"{self.exact}/{self.total}",
            "Within 5%": f"{self.within_5pct}/{self.total}",
            "Mean slowdown of pick": f"{self.mean_gap:.3f}x",
        }


def graph_profiles_for_sweep(
    sweep: SweepResult,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    seed: int = 0,
) -> dict[str, GraphProfile]:
    """Profile each distinct graph of a sweep under the given thresholds.

    Each graph is profiled at its simulation scale against
    ``scaled_system(scale)``, the machine its sweep units ran on.

    Graphs are materialized through the runtime's memoized loader, so
    scoring many threshold variants rebuilds each dataset only once.
    """
    profiles: dict[str, GraphProfile] = {}
    for key in {row.graph for row in sweep.rows}:
        ref = GraphRef.dataset(key, seed=seed)
        profiles[key] = profile_graph(load_graph(ref),
                                      scaled_system(ref.scale), thresholds)
    return profiles


def _score(
    sweep: SweepResult,
    workload_profiles: dict[tuple[str, str], WorkloadProfile],
    label: str,
) -> AblationOutcome:
    exact = 0
    close = 0
    gaps = []
    for row in sweep.rows:
        prediction = predict_configuration(
            workload_profiles[(row.graph, row.app)]
        ).code
        cycles = {c: r.cycles for c, r in row.workload.results.items()}
        if prediction not in cycles:
            # The ablated model proposed a direction the application
            # cannot run (e.g. a static config for dynamic CC): charge
            # the worst measured configuration.
            gap = max(cycles.values()) / cycles[row.best]
        else:
            gap = cycles[prediction] / cycles[row.best]
        gaps.append(gap)
        if prediction == row.best:
            exact += 1
        if gap <= 1.05:
            close += 1
    return AblationOutcome(
        label=label,
        exact=exact,
        within_5pct=close,
        total=len(sweep.rows),
        mean_gap=sum(gaps) / len(gaps) if gaps else 0.0,
    )


def threshold_sensitivity(
    sweep: SweepResult,
    variants: Iterable[tuple[str, Thresholds]] | None = None,
    seed: int = 0,
) -> list[AblationOutcome]:
    """Score the model under different classification thresholds."""
    if variants is None:
        base = DEFAULT_THRESHOLDS
        variants = [
            ("paper thresholds", base),
            ("reuse +50%", replace(base, reuse_low=0.225, reuse_high=0.60)),
            ("reuse -50%", replace(base, reuse_low=0.075, reuse_high=0.20)),
            ("imbalance x2", replace(base, imbalance_low=0.10,
                                     imbalance_high=0.50)),
            ("imbalance /2", replace(base, imbalance_low=0.025,
                                     imbalance_high=0.125)),
            ("volume low x2", replace(base, volume_low_l1_factor=3.0)),
        ]
    outcomes = []
    for label, thresholds in variants:
        profiles = graph_profiles_for_sweep(sweep, thresholds, seed)
        workload_profiles = {
            (row.graph, row.app): profile_workload(profiles[row.graph],
                                                   row.app)
            for row in sweep.rows
        }
        outcomes.append(_score(sweep, workload_profiles, label))
    return outcomes


def _neutralized_app(props: AlgorithmicProperties,
                     feature: str) -> AlgorithmicProperties:
    if feature == "traversal":
        return replace(props, traversal=Traversal.STATIC,
                       control=props.control if props.control
                       != Control.NOT_APPLICABLE else Control.SYMMETRIC,
                       information=props.information if props.information
                       != Information.NOT_APPLICABLE
                       else Information.SYMMETRIC)
    if feature == "control":
        return replace(props, control=Control.SYMMETRIC)
    if feature == "information":
        return replace(props, information=Information.SYMMETRIC)
    raise ValueError(feature)


def feature_ablation(
    sweep: SweepResult, seed: int = 0
) -> list[AblationOutcome]:
    """Score the model with each of the six inputs neutralized in turn."""
    profiles = graph_profiles_for_sweep(sweep, seed=seed)

    def wp(graph_key: str, app: str, *, graph_override=None,
           app_override=None) -> WorkloadProfile:
        graph_profile = graph_override or profiles[graph_key]
        app_props = app_override or APP_PROPERTIES[app]
        return WorkloadProfile(graph=graph_profile, app=app_props)

    outcomes = [_score(
        sweep,
        {(r.graph, r.app): wp(r.graph, r.app) for r in sweep.rows},
        "full model",
    )]

    for feature, level_field in (("volume", "volume_class"),
                                 ("reuse", "reuse_class"),
                                 ("imbalance", "imbalance_class")):
        neutral = {
            key: replace(profile, **{level_field: Level.MEDIUM})
            for key, profile in profiles.items()
        }
        outcomes.append(_score(
            sweep,
            {(r.graph, r.app): wp(r.graph, r.app,
                                  graph_override=neutral[r.graph])
             for r in sweep.rows},
            f"without {feature} (pinned M)",
        ))

    for feature in ("traversal", "control", "information"):
        outcomes.append(_score(
            sweep,
            {(r.graph, r.app): wp(
                r.graph, r.app,
                app_override=_neutralized_app(APP_PROPERTIES[r.app], feature),
            ) for r in sweep.rows},
            f"without {feature} (pinned)",
        ))
    return outcomes
