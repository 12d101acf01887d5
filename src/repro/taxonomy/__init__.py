"""Workload taxonomy: volume, reuse, imbalance, and algorithmic properties."""

from .algorithmic import (
    APP_KEYS,
    APP_PROPERTIES,
    AlgorithmicProperties,
    Control,
    Information,
    Traversal,
)
from .classify import DEFAULT_THRESHOLDS, Level, Thresholds
from .imbalance import (
    ImbalanceDetail,
    imbalance_metric,
    marked_thread_blocks,
    warp_max_degrees,
)
from .kmeans import two_means, two_means_rows
from .profile import (
    GraphProfile,
    WorkloadProfile,
    profile_graph,
    profile_workload,
)
from .reuse import (
    ReuseMetrics,
    reuse_metrics,
    reuse_score,
)
from .volume import volume_bytes, volume_elements, volume_kb

__all__ = [
    "Level",
    "Thresholds",
    "DEFAULT_THRESHOLDS",
    "volume_elements",
    "volume_bytes",
    "volume_kb",
    "ReuseMetrics",
    "reuse_metrics",
    "reuse_score",
    "ImbalanceDetail",
    "imbalance_metric",
    "marked_thread_blocks",
    "warp_max_degrees",
    "two_means",
    "two_means_rows",
    "Traversal",
    "Control",
    "Information",
    "AlgorithmicProperties",
    "APP_PROPERTIES",
    "APP_KEYS",
    "GraphProfile",
    "WorkloadProfile",
    "profile_graph",
    "profile_workload",
]
