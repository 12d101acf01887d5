"""Graph kernels: the application matrix plus phase/trace machinery.

Every application yields its work directly as lists of the phase
dataclasses in :mod:`repro.kernels.base` (``EdgePhase`` for an advance,
``VertexPhase`` for a filter or compute step, ``DynamicPhase`` for a
data-dependent traversal), which the trace generator
(:mod:`repro.kernels.tracegen`) realizes as push or pull memory traces.
"""

from .base import (
    DynamicPhase,
    EdgePhase,
    GraphKernel,
    VertexPhase,
)
from .bc import BCResult, BetweennessCentrality
from .bfs import BFS
from .cc import ConnectedComponents
from .coloring import GraphColoring
from .kcore import KCore
from .labelprop import LabelPropagation
from .mis import MIS
from .pagerank import PageRank
from .registry import KERNELS, make_kernel
from .sssp import SSSP
from .tracegen import TraceBuilder
from .triangle import TriangleCounting

__all__ = [
    "GraphKernel",
    "EdgePhase",
    "VertexPhase",
    "DynamicPhase",
    "PageRank",
    "SSSP",
    "MIS",
    "GraphColoring",
    "BetweennessCentrality",
    "BCResult",
    "ConnectedComponents",
    "BFS",
    "KCore",
    "TriangleCounting",
    "LabelPropagation",
    "KERNELS",
    "make_kernel",
    "TraceBuilder",
]
