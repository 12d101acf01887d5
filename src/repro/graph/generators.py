"""Synthetic graph generators.

The paper's six SuiteSparse inputs are not redistributable here, so
``repro.graph.datasets`` builds stand-ins from the generators in this
module.  Three knobs matter, because they are exactly what the taxonomy
(Section III-A) measures:

* the **degree distribution** (volume via |V|+|E|, imbalance via the tail),
* the **locality** of edges relative to thread-block windows (reuse via
  ANL/ANR, Equations 2-6), and
* the **spatial arrangement** of degrees over the vertex id space
  (imbalance via per-warp max-degree clustering, Equation 7).

Two families are provided: a locality-controlled random multigraph with a
pluggable degree distribution (:func:`generate_graph`), and regular torus
meshes (:func:`grid_torus`) for the FEM/mesh-structured inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builders import from_edge_list, normalize, relabel
from .csr import CSRGraph

__all__ = [
    "DegreeDistribution",
    "GraphSpec",
    "sample_degrees",
    "arrange_degrees",
    "generate_graph",
    "grid_torus",
    "shuffle_labels",
    "attach_unit_weights",
    "attach_random_weights",
]


@dataclass(frozen=True)
class DegreeDistribution:
    """A per-vertex *draw count* distribution.

    ``kind`` is one of ``constant``, ``uniform``, ``geometric``,
    ``lognormal``, ``zipf``.  Draw counts are halved relative to the target
    degree because normalization symmetrizes the graph (each drawn edge
    contributes to two vertex degrees).

    Parameters are interpreted per kind:

    * ``constant``: ``a`` = the draw count.
    * ``uniform``: integer draws in ``[a, b]`` inclusive.
    * ``geometric``: mean ``a`` (success prob ``1/(a+1)``), i.e. draws of
      0, 1, 2, ... with a light tail.
    * ``lognormal``: underlying normal with ``mu=a``, ``sigma=b``.
    * ``zipf``: Pareto-tail draws with exponent ``a`` (> 1), shifted so 0
      draws are possible.

    All draws are clipped to ``[min_draws, max_draws]``.
    """

    kind: str
    a: float
    b: float = 0.0
    min_draws: int = 0
    max_draws: int = 2**31 - 1


def sample_degrees(
    dist: DegreeDistribution, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``n`` per-vertex draw counts from ``dist``."""
    if dist.kind == "constant":
        draws = np.full(n, int(dist.a), dtype=np.int64)
    elif dist.kind == "uniform":
        draws = rng.integers(int(dist.a), int(dist.b) + 1, size=n)
    elif dist.kind == "geometric":
        p = 1.0 / (dist.a + 1.0)
        draws = rng.geometric(p, size=n) - 1
    elif dist.kind == "lognormal":
        draws = np.rint(rng.lognormal(dist.a, dist.b, size=n)).astype(np.int64)
    elif dist.kind == "zipf":
        draws = rng.zipf(dist.a, size=n).astype(np.int64) - 1
    else:
        raise ValueError(f"unknown degree distribution kind {dist.kind!r}")
    return np.clip(draws, dist.min_draws, dist.max_draws).astype(np.int64)


def arrange_degrees(
    draws: np.ndarray,
    arrangement: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Place draw counts over the vertex id space.

    ``shuffled`` sprinkles high-degree vertices uniformly (maximizing the
    chance a thread block mixes heavy and light warps -> high imbalance);
    ``sorted`` orders vertices by degree so warps within a thread block see
    near-identical maxima -> near-zero imbalance.  ``natural`` keeps the
    sampled order.
    """
    if arrangement == "natural":
        return draws
    if arrangement == "shuffled":
        return rng.permutation(draws)
    if arrangement == "sorted":
        return np.sort(draws)
    raise ValueError(f"unknown arrangement {arrangement!r}")


@dataclass(frozen=True)
class GraphSpec:
    """Full recipe for :func:`generate_graph`."""

    num_vertices: int
    degrees: DegreeDistribution
    locality: float = 0.0
    arrangement: str = "shuffled"
    tb_size: int = 256
    seed: int = 0
    name: str = "synthetic"
    #: Optional explicit hubs: (count, degree as a fraction of |V|).
    #: Models inputs like circuit graphs whose power nets touch a large
    #: share of the vertices — the degree tail that drives imbalance.
    hubs: tuple[int, float] | None = None

    def __post_init__(self) -> None:
        if self.num_vertices <= 0:
            raise ValueError("num_vertices must be positive")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError("locality must be within [0, 1]")
        if self.tb_size <= 0:
            raise ValueError("tb_size must be positive")
        if self.hubs is not None:
            count, fraction = self.hubs
            if count < 0 or not 0.0 < fraction <= 1.0:
                raise ValueError("hubs must be (count >= 0, 0 < frac <= 1)")


def generate_graph(spec: GraphSpec) -> CSRGraph:
    """Generate a normalized (simple, symmetric, loop-free) random graph.

    Each vertex draws neighbors: with probability ``spec.locality`` a
    uniformly random vertex from its own thread-block window, otherwise a
    uniformly random vertex from the whole graph.  The result is then run
    through the paper's input pipeline (:func:`repro.graph.builders.normalize`).
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.num_vertices
    tb = spec.tb_size
    draws = sample_degrees(spec.degrees, n, rng)
    draws = arrange_degrees(draws, spec.arrangement, rng)
    if spec.hubs is not None:
        count, fraction = spec.hubs
        count = min(count, n)
        if count:
            hub_ids = rng.choice(n, size=count, replace=False)
            # Halved like every draw count: normalization symmetrizes.
            draws[hub_ids] = max(1, int(fraction * n / 2))

    sources = np.repeat(np.arange(n, dtype=np.int64), draws)
    total = sources.size
    local = rng.random(total) < spec.locality
    dests = rng.integers(0, n, size=total, dtype=np.int64)
    if local.any():
        block_start = (sources[local] // tb) * tb
        block_len = np.minimum(block_start + tb, n) - block_start
        offsets = np.floor(rng.random(local.sum()) * block_len).astype(np.int64)
        dests[local] = block_start + offsets
    graph = from_edge_list(n, sources, dests, name=spec.name)
    graph = normalize(graph)
    graph.name = spec.name
    return graph


def grid_torus(
    width: int,
    height: int,
    stencil: int = 4,
    name: str = "torus",
) -> CSRGraph:
    """A ``width x height`` torus mesh with a 4- or 8-point stencil.

    Row-major vertex ids, so locality relative to thread-block windows is
    governed by ``width`` (neighbors at +-1 are almost always local;
    neighbors at +-width are local only when ``width`` is small relative to
    the thread-block size).  Models the paper's FEM/mesh inputs.
    """
    if stencil not in (4, 8):
        raise ValueError("stencil must be 4 or 8")
    if width < 3 or height < 3:
        raise ValueError("torus dimensions must be at least 3x3")
    n = width * height
    vid = np.arange(n, dtype=np.int64)
    col = vid % width
    row = vid // width
    east = row * width + (col + 1) % width
    west = row * width + (col - 1) % width
    south = ((row + 1) % height) * width + col
    north = ((row - 1) % height) * width + col
    neighbor_sets = [east, west, south, north]
    if stencil == 8:
        se = ((row + 1) % height) * width + (col + 1) % width
        sw = ((row + 1) % height) * width + (col - 1) % width
        ne = ((row - 1) % height) * width + (col + 1) % width
        nw = ((row - 1) % height) * width + (col - 1) % width
        neighbor_sets += [se, sw, ne, nw]
    sources = np.tile(vid, len(neighbor_sets))
    dests = np.concatenate(neighbor_sets)
    graph = from_edge_list(n, sources, dests, name=name)
    graph = normalize(graph)
    graph.name = name
    return graph


def shuffle_labels(graph: CSRGraph, seed: int = 0) -> CSRGraph:
    """Randomly permute vertex ids (destroys thread-block locality)."""
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(graph.num_vertices)
    shuffled = relabel(graph, permutation)
    shuffled.name = graph.name
    return shuffled


def attach_unit_weights(graph: CSRGraph) -> CSRGraph:
    """Return a copy of ``graph`` with all-ones edge weights."""
    return CSRGraph(
        graph.indptr.copy(),
        graph.indices.copy(),
        np.ones(graph.num_edges),
        name=graph.name,
    )


def attach_random_weights(
    graph: CSRGraph, low: int = 1, high: int = 16, seed: int = 0
) -> CSRGraph:
    """Return a copy with symmetric integer weights in ``[low, high]``.

    The weight of (u, v) equals the weight of (v, u) so SSSP on the
    symmetric input behaves like an undirected shortest-path problem.
    """
    rng = np.random.default_rng(seed)
    sources = graph.edge_sources
    lo = np.minimum(sources, graph.indices)
    hi = np.maximum(sources, graph.indices)
    # Hash the unordered pair into a deterministic weight so both
    # directions of an edge agree regardless of CSR order.
    mix = (lo * 2654435761 + hi * 40503) % (2**31)
    base = rng.integers(0, 2**31, dtype=np.int64)
    weights = ((mix ^ base) % (high - low + 1) + low).astype(np.float64)
    return CSRGraph(
        graph.indptr.copy(), graph.indices.copy(), weights, name=graph.name
    )
