"""Reuse metric (Equations 2-6).

Counts, for every vertex, how many of its neighbors land in the same
thread block (local, Equation 4) versus a different thread block (remote,
Equation 5), excluding self-edges.  The Reuse score (Equation 6) maps the
local-vs-remote skew into [0, 1]: 0 means all-remote connectivity (no
intra-thread-block reuse potential), 1 means all-local.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph

__all__ = ["ReuseMetrics", "reuse_metrics", "reuse_score"]


@dataclass(frozen=True)
class ReuseMetrics:
    """ANL, ANR, and the combined Reuse score for one graph."""

    anl: float
    anr: float
    reuse: float


def _local_remote_counts(
    graph: CSRGraph, tb_size: int
) -> tuple[float, float]:
    if tb_size <= 0:
        raise ValueError("tb_size must be positive")
    sources = graph.edge_sources
    dests = graph.indices
    not_self = sources != dests
    same_block = (sources // tb_size) == (dests // tb_size)
    local = float(np.count_nonzero(not_self & same_block))
    remote = float(np.count_nonzero(not_self & ~same_block))
    return local, remote


def reuse_metrics(graph: CSRGraph, tb_size: int = 256) -> ReuseMetrics:
    """Compute ANL, ANR, and Reuse in one pass."""
    local, remote = _local_remote_counts(graph, tb_size)
    n = graph.num_vertices
    anl = local / n
    anr = remote / n
    avg_degree = graph.num_edges / n
    if avg_degree == 0:
        # A graph with no edges has no reuse potential at all.
        return ReuseMetrics(anl=0.0, anr=0.0, reuse=0.0)
    score = 0.5 * (1.0 + (anl - anr) / avg_degree)
    return ReuseMetrics(anl=anl, anr=anr, reuse=float(np.clip(score, 0.0, 1.0)))


def reuse_score(graph: CSRGraph, tb_size: int = 256) -> float:
    """Reuse (Equation 6), in [0, 1]."""
    return reuse_metrics(graph, tb_size).reuse
