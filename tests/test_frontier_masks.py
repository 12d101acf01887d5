"""The phase stream's frontier masks against an independent reference.

``iterations()`` is each application's one algorithm: the masks it
yields are what push elides edge loops by, and what ``functional()``
drains to a result.  These properties check the masks themselves
against networkx on random small graphs, so a frontier that drifts from
the algorithm fails here and not only as a changed phase digest.
"""

import networkx as nx
import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.graph import attach_random_weights
from repro.kernels import BFS, SSSP, BetweennessCentrality
from tests.conftest import to_networkx
from tests.test_properties import common, normalized_graphs


@st.composite
def rooted_graphs(draw):
    """A normalized random graph and a source vertex in it."""
    g = draw(normalized_graphs())
    assume(g.num_vertices > 0)
    return g, draw(st.integers(0, g.num_vertices - 1))


def _depth_masks(g, source) -> list[np.ndarray]:
    """networkx's BFS depth sets from ``source``, as one mask per depth."""
    depths = nx.single_source_shortest_path_length(to_networkx(g), source)
    masks = [np.zeros(g.num_vertices, dtype=bool)
             for _ in range(max(depths.values()) + 1)]
    for v, depth in depths.items():
        masks[depth][v] = True
    return masks


class TestFrontierMasks:
    @common
    @given(rooted_graphs())
    def test_bfs_frontier_is_each_depth_set(self, data):
        g, source = data
        levels = _depth_masks(g, source)
        iterations = list(BFS(g, source=source).iterations(g.num_vertices))
        assert len(iterations) == len(levels)
        seen = np.zeros(g.num_vertices, dtype=bool)
        for (phase,), level in zip(iterations, levels):
            seen |= level
            assert np.array_equal(phase.source_active, level)
            assert np.array_equal(phase.target_active, ~seen)

    @common
    @given(rooted_graphs())
    def test_bc_forward_frontier_is_each_depth_set(self, data):
        g, source = data
        levels = _depth_masks(g, source)
        kernel = BetweennessCentrality(g, source=source)
        phases = [phase for (phase,) in kernel.iterations(g.num_vertices)]
        forward = [p for p in phases if p.name.startswith("bc_fwd")]
        backward = [p for p in phases if p.name.startswith("bc_bwd")]
        # The deepest level has nothing left to discover.
        assert len(forward) == len(backward) == len(levels) - 1
        for phase, level in zip(forward, levels):
            assert np.array_equal(phase.source_active, level)
        for phase, depth in zip(backward, range(len(levels) - 1, 0, -1)):
            assert np.array_equal(phase.source_active, levels[depth])
            assert np.array_equal(phase.target_active, levels[depth - 1])

    @common
    @given(rooted_graphs(), st.booleans())
    def test_sssp_frontiers_cover_the_reachable_set(self, data, weighted):
        g, source = data
        if weighted:
            g = attach_random_weights(g, seed=source)
        reachable = np.zeros(g.num_vertices, dtype=bool)
        reachable[list(nx.descendants(to_networkx(g), source))] = True
        reachable[source] = True
        union = np.zeros(g.num_vertices, dtype=bool)
        for (phase,) in SSSP(g, source=source).iterations(g.num_vertices + 1):
            union |= phase.source_active
        assert np.array_equal(union, reachable)
