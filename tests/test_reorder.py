"""Tests for vertex reordering and its taxonomy effects."""

import numpy as np
import pytest

from repro.graph import (
    apply_order,
    bfs_order,
    degree_sort,
    grid_torus,
    rcm_order,
    shuffle_labels,
)
from repro.taxonomy import imbalance_metric, reuse_score
from tests.conftest import edge_set


def same_structure(a, b):
    return (a.num_edges == b.num_edges
            and sorted(a.out_degrees) == sorted(b.out_degrees))


class TestApplyOrder:
    def test_identity(self, star):
        same = apply_order(star, np.arange(star.num_vertices))
        assert edge_set(same) == edge_set(star)

    def test_structure_preserved(self, small_random):
        rng = np.random.default_rng(0)
        shuffled = apply_order(
            small_random, rng.permutation(small_random.num_vertices)
        )
        assert same_structure(small_random, shuffled)

    def test_order_semantics(self, path4):
        # order[i] = old id that becomes new vertex i: reversing the path
        # maps old 3 -> new 0.
        reversed_path = apply_order(path4, np.array([3, 2, 1, 0]))
        assert reversed_path.neighbors(0).tolist() == [1]  # old 3-2 edge


class TestDegreeSort:
    def test_descending(self, small_random):
        ordered = degree_sort(small_random)
        degrees = ordered.out_degrees
        assert all(degrees[i] >= degrees[i + 1]
                   for i in range(len(degrees) - 1))

    def test_ascending(self, small_random):
        ordered = degree_sort(small_random, descending=False)
        degrees = ordered.out_degrees
        assert all(degrees[i] <= degrees[i + 1]
                   for i in range(len(degrees) - 1))

    def test_reduces_imbalance_of_spiky_graph(self):
        from repro.graph import DegreeDistribution, GraphSpec, generate_graph

        spiky = generate_graph(GraphSpec(
            num_vertices=2048,
            degrees=DegreeDistribution("zipf", a=2.0, min_draws=1,
                                       max_draws=400),
            seed=4, name="spiky",
        ))
        before = imbalance_metric(spiky)
        after = imbalance_metric(degree_sort(spiky))
        assert after < before


class TestBFSAndRCM:
    def test_bfs_structure_preserved(self, small_random):
        assert same_structure(small_random, bfs_order(small_random))

    def test_bfs_rejects_bad_source(self, small_random):
        with pytest.raises(ValueError, match="range"):
            bfs_order(small_random, source=10**6)

    def test_bfs_covers_disconnected_graph(self, two_components):
        ordered = bfs_order(two_components)
        assert ordered.num_vertices == two_components.num_vertices

    def test_rcm_structure_preserved(self, small_random):
        assert same_structure(small_random, rcm_order(small_random))

    def test_recovers_mesh_locality(self):
        mesh = grid_torus(16, 16, stencil=4, name="mesh")
        destroyed = shuffle_labels(mesh, seed=9)
        assert reuse_score(destroyed, tb_size=64) < 0.3
        recovered = rcm_order(destroyed)
        assert (reuse_score(recovered, tb_size=64)
                > reuse_score(destroyed, tb_size=64) + 0.2)

    def test_bfs_improves_shuffled_mesh(self):
        mesh = shuffle_labels(grid_torus(16, 16, stencil=4), seed=3)
        improved = bfs_order(mesh)
        assert reuse_score(improved, tb_size=64) > reuse_score(
            mesh, tb_size=64
        )
