"""Unit tests for synthetic graph generators."""

import numpy as np
import pytest

from repro.graph import (
    DegreeDistribution,
    GraphSpec,
    attach_unit_weights,
    generate_graph,
    grid_torus,
    shuffle_labels,
)
from repro.graph.generators import arrange_degrees, sample_degrees
from tests.conftest import edge_set, has_self_loops, is_symmetric


class TestSampleDegrees:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_constant(self):
        d = sample_degrees(DegreeDistribution("constant", a=3), 10, self.rng)
        assert (d == 3).all()

    def test_uniform_bounds(self):
        d = sample_degrees(
            DegreeDistribution("uniform", a=2, b=5), 1000, self.rng
        )
        assert d.min() >= 2 and d.max() <= 5

    def test_geometric_mean(self):
        d = sample_degrees(
            DegreeDistribution("geometric", a=4.0), 20000, self.rng
        )
        assert abs(d.mean() - 4.0) < 0.2

    def test_lognormal_positive(self):
        d = sample_degrees(
            DegreeDistribution("lognormal", a=1.0, b=0.5), 1000, self.rng
        )
        assert d.min() >= 0

    def test_zipf_heavy_tail(self):
        d = sample_degrees(
            DegreeDistribution("zipf", a=2.0, max_draws=10**6), 50000, self.rng
        )
        # A heavy tail produces a max far above the mean.
        assert d.max() > 20 * max(d.mean(), 1)

    def test_clipping(self):
        d = sample_degrees(
            DegreeDistribution("zipf", a=2.0, min_draws=1, max_draws=5),
            5000, self.rng,
        )
        assert d.min() >= 1 and d.max() <= 5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown degree"):
            sample_degrees(DegreeDistribution("pareto", a=1), 5, self.rng)


class TestArrangeDegrees:
    def test_sorted(self):
        rng = np.random.default_rng(0)
        out = arrange_degrees(np.array([3, 1, 2]), "sorted", rng)
        assert out.tolist() == [1, 2, 3]

    def test_shuffled_preserves_multiset(self):
        rng = np.random.default_rng(0)
        src = np.arange(100)
        out = arrange_degrees(src, "shuffled", rng)
        assert sorted(out) == sorted(src)

    def test_natural_is_identity(self):
        rng = np.random.default_rng(0)
        src = np.array([5, 1, 9])
        assert arrange_degrees(src, "natural", rng).tolist() == [5, 1, 9]

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="arrangement"):
            arrange_degrees(np.array([1]), "diagonal", np.random.default_rng(0))


class TestGenerateGraph:
    def test_output_is_normalized(self, small_random):
        assert not has_self_loops(small_random)
        assert is_symmetric(small_random)

    def test_deterministic_per_seed(self):
        spec = GraphSpec(
            num_vertices=200,
            degrees=DegreeDistribution("geometric", a=2.0),
            seed=42,
        )
        a = generate_graph(spec)
        b = generate_graph(spec)
        assert edge_set(a) == edge_set(b)

    def test_different_seeds_differ(self):
        base = dict(
            num_vertices=200, degrees=DegreeDistribution("geometric", a=2.0)
        )
        a = generate_graph(GraphSpec(seed=1, **base))
        b = generate_graph(GraphSpec(seed=2, **base))
        assert edge_set(a) != edge_set(b)

    def test_locality_increases_block_edges(self):
        base = dict(
            num_vertices=2048,
            degrees=DegreeDistribution("constant", a=4),
            tb_size=256,
        )
        local = generate_graph(GraphSpec(locality=0.9, seed=0, **base))
        remote = generate_graph(GraphSpec(locality=0.0, seed=0, **base))

        def block_fraction(g):
            src = np.repeat(np.arange(g.num_vertices), g.out_degrees)
            same = (src // 256) == (g.indices // 256)
            return same.mean()

        assert block_fraction(local) > block_fraction(remote) + 0.5

    def test_rejects_bad_locality(self):
        with pytest.raises(ValueError, match="locality"):
            GraphSpec(
                num_vertices=10,
                degrees=DegreeDistribution("constant", a=1),
                locality=1.5,
            )


class TestGridTorus:
    def test_four_point_is_4_regular(self):
        g = grid_torus(8, 8, stencil=4)
        assert (g.out_degrees == 4).all()

    def test_eight_point_is_8_regular(self):
        g = grid_torus(8, 8, stencil=8)
        assert (g.out_degrees == 8).all()

    def test_symmetric(self, small_mesh):
        assert is_symmetric(small_mesh)

    def test_rejects_tiny_dims(self):
        with pytest.raises(ValueError, match="at least"):
            grid_torus(2, 8)

    def test_rejects_bad_stencil(self):
        with pytest.raises(ValueError, match="stencil"):
            grid_torus(8, 8, stencil=6)


class TestShuffleAndWeights:
    def test_shuffle_preserves_structure(self, small_mesh):
        shuffled = shuffle_labels(small_mesh, seed=1)
        assert shuffled.num_edges == small_mesh.num_edges
        assert sorted(shuffled.out_degrees) == sorted(small_mesh.out_degrees)

    def test_unit_weights(self, triangle):
        w = attach_unit_weights(triangle)
        assert (w.weights == 1.0).all()

    def test_random_weights_symmetric(self, small_random):
        edge_weights = {}
        src = np.repeat(
            np.arange(small_random.num_vertices), small_random.out_degrees
        )
        for s, d, w in zip(src, small_random.indices, small_random.weights):
            edge_weights[(int(s), int(d))] = float(w)
        for (s, d), w in edge_weights.items():
            assert edge_weights[(d, s)] == w

    def test_random_weights_in_range(self, small_random):
        assert small_random.weights.min() >= 1
        assert small_random.weights.max() <= 16
