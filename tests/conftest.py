"""Shared fixtures (small deterministic graphs) and test oracles."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    DegreeDistribution,
    GraphSpec,
    attach_random_weights,
    from_edge_list,
    generate_graph,
    grid_torus,
    normalize,
)
from repro.sim.cache import OWNED

_FIXTURE_TOOL = (Path(__file__).parent.parent / "tools"
                 / "make_golden_fixture.py")


# ----------------------------------------------------------------------
# Oracles: plain restatements of graph and cache structure for asserts.
# ----------------------------------------------------------------------
def _sources(graph: CSRGraph) -> np.ndarray:
    """Source vertex of every out-edge, parallel to ``graph.indices``."""
    return np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                     graph.out_degrees)


def edge_set(graph: CSRGraph) -> set[tuple[int, int]]:
    """All edges as a set of (source, destination) pairs."""
    return set(zip(_sources(graph).tolist(), graph.indices.tolist()))


def has_self_loops(graph: CSRGraph) -> bool:
    """True when any edge has identical endpoints."""
    return bool(np.any(_sources(graph) == graph.indices))


def is_symmetric(graph: CSRGraph) -> bool:
    """True when for every edge (u, v) the reverse edge (v, u) exists."""
    n = graph.num_vertices
    sources = _sources(graph)
    return bool(np.array_equal(np.unique(sources * n + graph.indices),
                               np.unique(graph.indices * n + sources)))


def edge_weights_of(graph: CSRGraph, v: int) -> np.ndarray:
    """Weights of ``v``'s out-edges (unit weights if unweighted)."""
    if graph.weights is None:
        return np.ones(graph.indptr[v + 1] - graph.indptr[v])
    return graph.weights[graph.indptr[v]:graph.indptr[v + 1]]


def in_degrees(graph: CSRGraph) -> np.ndarray:
    """In-degree of every vertex, counted from the out-edges."""
    return np.bincount(graph.indices, minlength=graph.num_vertices)


def in_neighbors(graph: CSRGraph, v: int) -> np.ndarray:
    """In-neighbors of ``v`` from the CSC view."""
    return graph.in_indices[graph.in_indptr[v]:graph.in_indptr[v + 1]]


def owned_lines(cache) -> list[int]:
    """Every line live in OWNED state in a ``SetAssocCache``."""
    return [line for cache_set in cache._sets
            for line, entry in cache_set.items()
            if cache._live_state(entry) == OWNED]


@pytest.fixture(autouse=True)
def _hermetic_result_cache(tmp_path, monkeypatch):
    """Point the default result cache at a per-test directory.

    CLI commands cache results under ``$REPRO_CACHE_DIR`` (or
    ``~/.cache/repro``) by default; tests must never read or pollute the
    user's real cache.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "result-cache"))


@pytest.fixture(scope="session")
def fixture_tool():
    """``tools/make_golden_fixture.py``, which wrote tests/data."""
    spec = importlib.util.spec_from_file_location("make_golden_fixture",
                                                  _FIXTURE_TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def triangle():
    """Directed 3-cycle: 0->1->2->0."""
    return from_edge_list(3, [0, 1, 2], [1, 2, 0], name="triangle")


@pytest.fixture
def sym_triangle(triangle):
    """Symmetric triangle (complete graph K3)."""
    return normalize(triangle)


@pytest.fixture
def star():
    """Symmetric star: vertex 0 connected to 1..5."""
    hub = [0] * 5 + list(range(1, 6))
    leaves = list(range(1, 6)) + [0] * 5
    return from_edge_list(6, hub, leaves, name="star")


@pytest.fixture
def path4():
    """Symmetric path on 4 vertices: 0-1-2-3."""
    src = [0, 1, 1, 2, 2, 3]
    dst = [1, 0, 2, 1, 3, 2]
    return from_edge_list(4, src, dst, name="path4")


@pytest.fixture
def two_components():
    """Two disjoint symmetric edges: {0,1} and {2,3}, vertex 4 isolated."""
    return from_edge_list(5, [0, 1, 2, 3], [1, 0, 3, 2], name="two-comps")


@pytest.fixture
def small_random():
    """~400-vertex random graph with weights (fast but non-trivial)."""
    spec = GraphSpec(
        num_vertices=400,
        degrees=DegreeDistribution("geometric", a=2.0, max_draws=12),
        locality=0.3,
        arrangement="shuffled",
        seed=7,
        name="small-random",
    )
    return attach_random_weights(generate_graph(spec), seed=7)


@pytest.fixture
def small_mesh():
    """Small torus mesh (regular, high locality)."""
    return grid_torus(10, 12, stencil=4, name="small-mesh")


@pytest.fixture
def tiny_system():
    """A tiny simulated machine so cache effects appear at test scale."""
    from repro.sim import SystemConfig

    return SystemConfig(
        num_sms=4,
        l1_bytes=1024,
        l2_bytes=16 * 1024,
        tb_size=64,
        max_tbs_per_sm=2,
        kernel_launch_cycles=100,
    )


def to_networkx(graph: CSRGraph, weighted: bool = False):
    """Convert a CSRGraph to a networkx DiGraph for reference checks."""
    import networkx as nx

    nxg = nx.DiGraph()
    nxg.add_nodes_from(range(graph.num_vertices))
    sources = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), graph.out_degrees
    )
    if weighted and graph.weights is not None:
        for s, d, w in zip(sources, graph.indices, graph.weights):
            nxg.add_edge(int(s), int(d), weight=float(w))
    else:
        nxg.add_edges_from(zip(sources.tolist(), graph.indices.tolist()))
    return nxg
