"""Unit tests for the CSR graph structure."""

import numpy as np
import pytest

from repro.graph import CSRGraph, from_edge_list
from tests.conftest import (
    edge_set,
    edge_weights_of,
    has_self_loops,
    in_degrees,
    in_neighbors,
    is_symmetric,
)


class TestConstruction:
    def test_basic_shape(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.num_edges == 3

    def test_empty_graph(self):
        g = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_edgeless_vertices(self):
        g = CSRGraph(np.zeros(5, dtype=np.int64), np.array([], dtype=np.int64))
        assert g.num_vertices == 4
        assert g.num_edges == 0
        assert g.out_degrees.tolist() == [0, 0, 0, 0]

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_indptr_must_match_edge_count(self):
        with pytest.raises(ValueError, match="must equal"):
            CSRGraph(np.array([0, 2]), np.array([0]))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([0, 1, 2]))

    def test_destination_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_weights_must_be_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            CSRGraph(np.array([0, 1]), np.array([0]), np.array([1.0, 2.0]))

    def test_dtype_coercion(self):
        g = CSRGraph([0, 1, 2], [1, 0])
        assert g.indptr.dtype == np.int64
        assert g.indices.dtype == np.int64


class TestAccessors:
    def test_out_degrees(self, star):
        assert star.out_degrees[0] == 5
        assert star.out_degrees[1] == 1

    def test_in_degrees_symmetric_graph(self, star):
        assert np.array_equal(in_degrees(star), star.out_degrees)

    def test_neighbors(self, triangle):
        assert triangle.neighbors(0).tolist() == [1]
        assert triangle.neighbors(2).tolist() == [0]

    def test_edge_weights_default_to_unit(self, triangle):
        assert edge_weights_of(triangle, 0).tolist() == [1.0]

    def test_edge_weights_slice(self):
        g = from_edge_list(2, [0, 0], [0, 1], weights=[2.5, 3.5])
        assert edge_weights_of(g, 0).tolist() == [2.5, 3.5]


class TestInEdges:
    def test_in_neighbors_of_cycle(self, triangle):
        assert in_neighbors(triangle, 0).tolist() == [2]
        assert in_neighbors(triangle, 1).tolist() == [0]

    def test_in_indptr_consistent(self, star):
        assert star.in_indptr[-1] == star.num_edges
        assert np.array_equal(
            np.diff(star.in_indptr), in_degrees(star)
        )

    def test_in_weights_follow_edges(self):
        g = from_edge_list(3, [0, 1], [2, 2], weights=[5.0, 7.0])
        assert sorted(g.in_weights.tolist()) == [5.0, 7.0]
        assert in_neighbors(g, 2).tolist() == [0, 1]

    def test_in_weights_none_when_unweighted(self, triangle):
        assert triangle.in_weights is None


class TestPredicates:
    def test_self_loop_detection(self):
        g = from_edge_list(2, [0, 1], [0, 1])
        assert has_self_loops(g)

    def test_no_self_loops(self, triangle):
        assert not has_self_loops(triangle)

    def test_symmetric_detection(self, star):
        assert is_symmetric(star)

    def test_asymmetric_detection(self, triangle):
        assert not is_symmetric(triangle)

    def test_edge_set(self, triangle):
        assert edge_set(triangle) == {(0, 1), (1, 2), (2, 0)}
