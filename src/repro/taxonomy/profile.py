"""Graph and workload profiles: Table II rows and model inputs.

A :class:`GraphProfile` bundles the structural statistics with the three
taxonomy metrics and their H/M/L classes; a :class:`WorkloadProfile` pairs
that with an application's algorithmic properties.  Together they are the
six parameters consumed by the specialization model (Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.csr import CSRGraph
from ..graph.stats import DegreeStats, degree_stats
from ..sim.config import DEFAULT_SYSTEM, SystemConfig
from .algorithmic import APP_PROPERTIES, AlgorithmicProperties
from .classify import DEFAULT_THRESHOLDS, Level, Thresholds
from .imbalance import imbalance_metric
from .reuse import ReuseMetrics, reuse_metrics
from .volume import volume_bytes

__all__ = ["GraphProfile", "WorkloadProfile", "profile_graph",
           "profile_workload"]


@dataclass(frozen=True)
class GraphProfile:
    """Everything Table II records about one input graph."""

    name: str
    stats: DegreeStats
    volume_bytes: float
    reuse: ReuseMetrics
    imbalance: float
    volume_class: Level
    reuse_class: Level
    imbalance_class: Level

    @property
    def volume_kb(self) -> float:
        """Per-SM working-set volume in KiB (Table II's unit)."""
        return self.volume_bytes / 1024.0

    def as_row(self) -> dict:
        """Row dict matching Table II's columns."""
        row = {"Graph": self.name}
        row.update(self.stats.as_row())
        row.update(
            {
                "Volume (KB)": f"{self.volume_kb:.3f} ({self.volume_class})",
                "ANL": round(self.reuse.anl, 3),
                "ANR": round(self.reuse.anr, 3),
                "Reuse": f"{self.reuse.reuse:.3f} ({self.reuse_class})",
                "Imbalance": f"{self.imbalance:.3f} ({self.imbalance_class})",
            }
        )
        return row


@dataclass(frozen=True)
class WorkloadProfile:
    """The specialization model's six inputs for one (graph, app) pair."""

    graph: GraphProfile
    app: AlgorithmicProperties

    @property
    def key(self) -> tuple[str, str]:
        """(graph name, app name) identifier."""
        return (self.graph.name, self.app.app)


def profile_graph(
    graph: CSRGraph,
    system: SystemConfig = DEFAULT_SYSTEM,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> GraphProfile:
    """Compute the full Table II profile of a graph on ``system``.

    Volume is classed against ``system``'s L1/L2 capacities and SM count,
    reuse and imbalance use its thread-block size.  Pass the machine the
    graph simulates on — ``scaled_system(scale)`` for a dataset built at
    ``scale`` — so the profile and the simulator agree on the caches.
    """
    vol = volume_bytes(graph, num_sms=system.num_sms,
                       element_bytes=system.element_bytes)
    reuse = reuse_metrics(graph, tb_size=system.tb_size)
    imbalance = imbalance_metric(
        graph,
        tb_size=system.tb_size,
        centroid_diff_threshold=thresholds.kmeans_centroid_diff,
    )
    return GraphProfile(
        name=graph.name,
        stats=degree_stats(graph),
        volume_bytes=vol,
        reuse=reuse,
        imbalance=imbalance,
        volume_class=thresholds.classify_volume(
            vol, system.l1_bytes, system.l2_bytes, system.num_sms
        ),
        reuse_class=thresholds.classify_reuse(reuse.reuse),
        imbalance_class=thresholds.classify_imbalance(imbalance),
    )


def profile_workload(
    graph_profile: GraphProfile, app: str
) -> WorkloadProfile:
    """Pair a graph profile with a named application's Table III row."""
    try:
        properties = APP_PROPERTIES[app]
    except KeyError:
        raise KeyError(
            f"unknown application {app!r}; choose from {sorted(APP_PROPERTIES)}"
        ) from None
    return WorkloadProfile(graph=graph_profile, app=properties)
