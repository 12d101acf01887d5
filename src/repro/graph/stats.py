"""Degree statistics, matching the columns of Table II."""

from __future__ import annotations

from dataclasses import dataclass

from .csr import CSRGraph

__all__ = ["DegreeStats", "degree_stats"]


@dataclass(frozen=True)
class DegreeStats:
    """The basic structural columns of the paper's Table II."""

    num_vertices: int
    num_edges: int
    max_degree: int
    avg_degree: float
    std_degree: float

    def as_row(self) -> dict:
        """Row dict for tabular reports."""
        return {
            "Vertices": self.num_vertices,
            "Edges": self.num_edges,
            "Max Deg": self.max_degree,
            "Avg Deg": round(self.avg_degree, 3),
            "Std Dev Deg": round(self.std_degree, 3),
        }


def degree_stats(graph: CSRGraph) -> DegreeStats:
    """Compute out-degree statistics of a graph.

    For the paper's normalized (symmetric) inputs, out- and in-degree
    distributions coincide, so out-degrees suffice.
    """
    degrees = graph.out_degrees
    if degrees.size == 0:
        raise ValueError("graph has no vertices")
    return DegreeStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        max_degree=int(degrees.max()),
        avg_degree=float(degrees.mean()),
        std_degree=float(degrees.std()),
    )
