"""Application registry: name -> kernel class."""

from __future__ import annotations

from ..graph.csr import CSRGraph
from .base import GraphKernel
from .bc import BetweennessCentrality
from .bfs import BFS
from .cc import ConnectedComponents
from .coloring import GraphColoring
from .kcore import KCore
from .labelprop import LabelPropagation
from .mis import MIS
from .pagerank import PageRank
from .sssp import SSSP
from .triangle import TriangleCounting

__all__ = ["KERNELS", "make_kernel"]

#: The first six entries are the paper's Table III applications (order
#: matters: paper-pinned reports index into this prefix); the rest are
#: workloads added to probe the model's generalization.  Every class
#: yields its work as kernel phases from ``iterations()``.
KERNELS: dict[str, type[GraphKernel]] = {
    "PR": PageRank,
    "SSSP": SSSP,
    "MIS": MIS,
    "CLR": GraphColoring,
    "BC": BetweennessCentrality,
    "CC": ConnectedComponents,
    "BFS": BFS,
    "KC": KCore,
    "TC": TriangleCounting,
    "LP": LabelPropagation,
}


def make_kernel(app: str, graph: CSRGraph, seed: int = 0) -> GraphKernel:
    """Instantiate the named application over a graph."""
    try:
        cls = KERNELS[app]
    except KeyError:
        raise KeyError(
            f"unknown application {app!r}; choose from {sorted(KERNELS)}"
        ) from None
    return cls(graph, seed=seed)
