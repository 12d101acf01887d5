"""Deeper kernel-level unit tests: internals and edge cases."""

import numpy as np
import pytest

from repro.graph import from_edge_list
from repro.kernels import (
    MIS,
    BetweennessCentrality,
    ConnectedComponents,
    GraphColoring,
    PageRank,
    SSSP,
)
from repro.kernels.cc import _interleave, _roots


def _interleave_rows(a_offsets, a_values, b_offsets, b_values):
    """Reference merge: row i of the output is a_i then b_i."""
    rows = [np.concatenate((a_values[a_offsets[i]:a_offsets[i + 1]],
                            b_values[b_offsets[i]:b_offsets[i + 1]]))
            for i in range(a_offsets.size - 1)]
    offsets = np.cumsum([0] + [row.size for row in rows])
    values = np.concatenate(rows) if rows else np.empty(0)
    return offsets, values


class TestPageRankEdgeCases:
    def test_isolated_vertex_gets_base_rank(self, two_components):
        ranks = PageRank(two_components).functional()
        # The isolated vertex keeps the teleport share plus its cut of
        # the dangling redistribution; it must still be positive and the
        # total must stay 1.
        assert ranks[4] > 0
        assert ranks.sum() == pytest.approx(1.0)

    def test_dangling_mass_conserved(self):
        # One dangling vertex (in-edges only).
        g = from_edge_list(3, [0, 1], [2, 2])
        ranks = PageRank(g).functional()
        assert ranks.sum() == pytest.approx(1.0)

    def test_damping_extremes(self, small_random):
        uniform = PageRank(small_random, damping=0.0).functional()
        assert np.allclose(uniform, 1.0 / small_random.num_vertices)


class TestSSSPInternals:
    def test_relax_matches_naive(self, small_random):
        kernel = SSSP(small_random)
        dist = np.full(small_random.num_vertices, np.inf)
        dist[kernel.source] = 0.0
        frontier = np.zeros(small_random.num_vertices, dtype=bool)
        frontier[kernel.source] = True
        fast = kernel._relax(dist, frontier)

        naive = dist.copy()
        weights = small_random.weights
        for s in np.nonzero(frontier)[0]:
            lo, hi = small_random.indptr[s], small_random.indptr[s + 1]
            for position in range(lo, hi):
                t = small_random.indices[position]
                naive[t] = min(naive[t], dist[s] + weights[position])
        assert np.allclose(fast, naive)

    def test_empty_frontier_is_noop(self, small_random):
        kernel = SSSP(small_random)
        dist = np.full(small_random.num_vertices, np.inf)
        frontier = np.zeros(small_random.num_vertices, dtype=bool)
        assert np.array_equal(
            kernel._relax(dist, frontier), dist, equal_nan=True
        )


class TestMISAndColoringInternals:
    def test_mis_priorities_unique(self, small_random):
        priorities = MIS(small_random)._priorities()
        assert len(np.unique(priorities)) == priorities.size

    def test_mis_round_monotone(self, small_random):
        kernel = MIS(small_random)
        priority = kernel._priorities()
        state = np.zeros(small_random.num_vertices, dtype=np.int64)
        new_state = kernel._round(state, priority)
        # Decisions are never revoked.
        decided = state != 0
        assert np.array_equal(new_state[decided], state[decided])
        assert (new_state != 0).sum() > 0

    def test_coloring_rounds_use_two_colors_each(self, small_random):
        kernel = GraphColoring(small_random)
        color = kernel.functional(max_iters=1)
        used = set(np.unique(color)) - {-1}
        assert used <= {0, 1}


class TestBCInternals:
    def test_source_choice_default(self, small_random):
        kernel = BetweennessCentrality(small_random)
        assert kernel.source == int(np.argmax(small_random.out_degrees))


class TestCCInternals:
    def test_roots_resolves_chains(self):
        parent = np.array([0, 0, 1, 2, 4])
        assert _roots(parent).tolist() == [0, 0, 0, 0, 4]

    def test_roots_identity(self):
        parent = np.arange(5)
        assert np.array_equal(_roots(parent), parent)

    def test_interleave_rows(self):
        a_off = np.array([0, 2, 3])
        a_val = np.array([10, 11, 12])
        b_off = np.array([0, 1, 3])
        b_val = np.array([20, 21, 22])
        offsets, merged = _interleave(a_off, a_val, b_off, b_val)
        assert offsets.tolist() == [0, 3, 6]
        assert merged.tolist() == [10, 11, 20, 12, 21, 22]

    def test_interleave_empty_rows(self):
        # Row 0 is empty in both, row 1 only in a, row 3 only in b.
        a_off = np.array([0, 0, 0, 2, 2])
        a_val = np.array([10, 11])
        b_off = np.array([0, 0, 1, 1, 3])
        b_val = np.array([20, 21, 22])
        offsets, merged = _interleave(a_off, a_val, b_off, b_val)
        assert offsets.tolist() == [0, 0, 1, 3, 5]
        assert merged.tolist() == [20, 10, 11, 21, 22]
        offsets, merged = _interleave(np.array([0]), np.array([]),
                                      np.array([0]), np.array([]))
        assert offsets.tolist() == [0] and merged.size == 0

    def test_interleave_matches_row_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(0, 40))
            a_off = np.concatenate(([0], np.cumsum(rng.integers(0, 4, n))))
            b_off = np.concatenate(([0], np.cumsum(rng.integers(0, 4, n))))
            a_val = rng.integers(0, 100, a_off[-1])
            b_val = rng.integers(0, 100, b_off[-1])
            offsets, merged = _interleave(a_off, a_val, b_off, b_val)
            ref_offsets, ref_merged = _interleave_rows(a_off, a_val,
                                                       b_off, b_val)
            assert offsets.tolist() == ref_offsets.tolist()
            assert merged.tolist() == ref_merged.tolist()

    def test_chain_csr_consistency(self, small_random):
        kernel = ConnectedComponents(small_random)
        parent = np.arange(small_random.num_vertices)
        parent[1:] = 0  # star-shaped forest
        offsets, values = kernel._chains(parent)
        assert offsets[-1] == values.size
        # Vertex 0 is a root: its chain is just itself.
        assert values[offsets[0]:offsets[1]].tolist() == [0]
        # Vertex 1 chains through 0.
        assert values[offsets[1]:offsets[2]].tolist() == [1, 0]

    def test_hook_merges_components(self, sym_triangle):
        kernel = ConnectedComponents(sym_triangle)
        parent = np.arange(3)
        parent, changed = kernel._hook(parent, kernel._candidates(parent))
        assert changed
        assert (_roots(parent) == 0).all()

    def test_hook_fixpoint(self, sym_triangle):
        kernel = ConnectedComponents(sym_triangle)
        parent = np.zeros(3, dtype=np.int64)
        _, changed = kernel._hook(parent, kernel._candidates(parent))
        assert not changed
