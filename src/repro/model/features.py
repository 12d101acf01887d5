"""Feature extraction: the model's six parameters for a workload.

Convenience wrappers that go from raw inputs (a graph + an application
name) to the :class:`~repro.taxonomy.profile.WorkloadProfile` the decision
tree consumes, using a hardware description for the volume thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.csr import CSRGraph
from ..sim.config import DEFAULT_SYSTEM, SystemConfig
from ..taxonomy.classify import DEFAULT_THRESHOLDS, Thresholds
from ..taxonomy.profile import WorkloadProfile, profile_graph, profile_workload

__all__ = ["ModelFeatures", "extract_features", "workload_profile"]


@dataclass(frozen=True)
class ModelFeatures:
    """The six model inputs in plain form (Section IV)."""

    volume: str
    reuse: str
    imbalance: str
    traversal: str
    control: str
    information: str


def workload_profile(
    graph: CSRGraph,
    app: str,
    system: SystemConfig = DEFAULT_SYSTEM,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> WorkloadProfile:
    """Profile a (graph, app) pair on ``system``, the machine it runs on.

    See :func:`~repro.taxonomy.profile.profile_graph`: pass
    ``scaled_system(scale)`` for a dataset built at ``scale``.
    """
    return profile_workload(profile_graph(graph, system, thresholds), app)


def extract_features(profile: WorkloadProfile) -> ModelFeatures:
    """Flatten a workload profile into the model's six parameters."""
    return ModelFeatures(
        volume=profile.graph.volume_class.value,
        reuse=profile.graph.reuse_class.value,
        imbalance=profile.graph.imbalance_class.value,
        traversal=profile.app.traversal.value,
        control=profile.app.control.value,
        information=profile.app.information.value,
    )
