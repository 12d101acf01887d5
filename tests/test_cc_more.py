"""Additional CC scenarios: convergence behavior at scale and edge shapes."""

import numpy as np

from repro.graph import (
    DegreeDistribution,
    GraphSpec,
    from_edge_list,
    generate_graph,
)
from repro.kernels import ConnectedComponents


class TestManyComponents:
    def test_forest_of_pairs(self):
        n = 64
        src = list(range(0, n, 2)) + list(range(1, n, 2))
        dst = list(range(1, n, 2)) + list(range(0, n, 2))
        labels = ConnectedComponents(from_edge_list(n, src, dst)).functional()
        assert labels.tolist() == [2 * (i // 2) for i in range(n)]

    def test_long_chain(self):
        n = 200
        src = list(range(n - 1)) + list(range(1, n))
        dst = list(range(1, n)) + list(range(n - 1))
        labels = ConnectedComponents(from_edge_list(n, src, dst)).functional()
        assert (labels == 0).all()

    def test_component_count_matches_random_graph(self, small_random):
        import networkx as nx
        from tests.conftest import to_networkx

        labels = ConnectedComponents(small_random).functional()
        expected = nx.number_connected_components(
            to_networkx(small_random).to_undirected()
        )
        assert len(np.unique(labels)) == expected

    def test_isolated_vertices_are_own_components(self):
        g = from_edge_list(5, [0], [1])
        from repro.graph import symmetrize

        labels = ConnectedComponents(symmetrize(g)).functional()
        assert labels.tolist() == [0, 0, 2, 3, 4]


class TestIterationBehavior:
    def test_chain_convergence_is_logarithmic(self):
        n = 512
        src = list(range(n - 1)) + list(range(1, n))
        dst = list(range(1, n)) + list(range(n - 1))
        kernel = ConnectedComponents(from_edge_list(n, src, dst))
        iterations = list(kernel.iterations(max_iters=100))
        # Hooking + pointer jumping converges far faster than the chain
        # length (O(log n)-ish rounds).
        assert len(iterations) <= 20

    def test_power_law_graph_converges_quickly(self):
        graph = generate_graph(GraphSpec(
            num_vertices=1500,
            degrees=DegreeDistribution("zipf", a=2.2, min_draws=1,
                                       max_draws=300),
            seed=17, name="plaw",
        ))
        kernel = ConnectedComponents(graph)
        iterations = list(kernel.iterations(max_iters=100))
        assert len(iterations) <= 10
        labels = kernel.functional()
        assert labels.min() == 0

    def test_cas_targets_empty_after_convergence(self, sym_triangle):
        kernel = ConnectedComponents(sym_triangle)
        last = list(kernel.iterations(max_iters=20))[-1]
        hook = last[0]
        # The final (fixpoint) iteration hooks nothing.
        assert (hook.cas_targets == -1).all()
