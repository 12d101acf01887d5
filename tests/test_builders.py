"""Unit tests for graph construction and normalization."""

import numpy as np
import pytest

from repro.graph import (
    deduplicate,
    from_edge_list,
    normalize,
    relabel,
    remove_self_loops,
    subgraph,
    symmetrize,
)
from tests.conftest import (
    edge_set,
    edge_weights_of,
    has_self_loops,
    is_symmetric,
)


class TestFromEdgeList:
    def test_sorts_edges(self):
        g = from_edge_list(3, [2, 0, 1], [0, 1, 2])
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(2).tolist() == [0]

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError, match="equal length"):
            from_edge_list(3, [0, 1], [1])

    def test_rejects_out_of_range_source(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edge_list(2, [5], [0])

    def test_weights_follow_sort(self):
        g = from_edge_list(2, [1, 0], [0, 1], weights=[9.0, 3.0])
        assert edge_weights_of(g, 0).tolist() == [3.0]
        assert edge_weights_of(g, 1).tolist() == [9.0]

    def test_parallel_edges_preserved(self):
        g = from_edge_list(2, [0, 0], [1, 1])
        assert g.num_edges == 2


class TestDeduplicate:
    def test_removes_parallel_edges(self):
        g = from_edge_list(2, [0, 0, 0], [1, 1, 1])
        assert deduplicate(g).num_edges == 1

    def test_keeps_distinct_edges(self, triangle):
        assert deduplicate(triangle).num_edges == 3

    def test_keeps_first_weight(self):
        g = from_edge_list(2, [0, 0], [1, 1], weights=[4.0, 8.0])
        assert deduplicate(g).weights.tolist() == [4.0]


class TestRemoveSelfLoops:
    def test_drops_loops(self):
        g = from_edge_list(2, [0, 0, 1], [0, 1, 1])
        cleaned = remove_self_loops(g)
        assert cleaned.num_edges == 1
        assert not has_self_loops(cleaned)

    def test_noop_without_loops(self, triangle):
        assert remove_self_loops(triangle).num_edges == 3


class TestSymmetrize:
    def test_cycle_becomes_bidirectional(self, triangle):
        sym = symmetrize(triangle)
        assert sym.num_edges == 6
        assert is_symmetric(sym)

    def test_idempotent(self, star):
        again = symmetrize(star)
        assert edge_set(again) == edge_set(star)

    def test_weights_mirrored(self):
        g = from_edge_list(2, [0], [1], weights=[2.0])
        sym = symmetrize(g)
        assert edge_weights_of(sym, 0).tolist() == [2.0]
        assert edge_weights_of(sym, 1).tolist() == [2.0]


class TestNormalize:
    def test_full_pipeline(self):
        g = from_edge_list(3, [0, 0, 0, 1], [0, 1, 1, 2], name="messy")
        clean = normalize(g)
        assert not has_self_loops(clean)
        assert is_symmetric(clean)
        assert edge_set(clean) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_normalize_is_idempotent(self, small_random):
        again = normalize(small_random)
        assert edge_set(again) == edge_set(small_random)


class TestRelabel:
    def test_swap_two_vertices(self, triangle):
        swapped = relabel(triangle, [1, 0, 2])
        assert edge_set(swapped) == {(1, 0), (0, 2), (2, 1)}

    def test_identity(self, triangle):
        same = relabel(triangle, [0, 1, 2])
        assert edge_set(same) == edge_set(triangle)

    def test_rejects_non_bijection(self, triangle):
        with pytest.raises(ValueError, match="bijection"):
            relabel(triangle, [0, 0, 1])

    def test_rejects_wrong_length(self, triangle):
        with pytest.raises(ValueError, match="every vertex"):
            relabel(triangle, [0, 1])

    def test_preserves_degree_multiset(self, small_random):
        rng = np.random.default_rng(3)
        perm = rng.permutation(small_random.num_vertices)
        shuffled = relabel(small_random, perm)
        assert sorted(shuffled.out_degrees) == sorted(small_random.out_degrees)


class TestSubgraph:
    def test_induced_edges(self, star):
        sub = subgraph(star, [0, 1, 2])
        assert sub.num_vertices == 3
        assert edge_set(sub) == {(0, 1), (1, 0), (0, 2), (2, 0)}

    def test_disconnected_selection(self, star):
        sub = subgraph(star, [1, 2])
        assert sub.num_edges == 0

    def test_rejects_duplicates(self, star):
        with pytest.raises(ValueError, match="unique"):
            subgraph(star, [1, 1])
