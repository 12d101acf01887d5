"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import (
    from_edge_list,
    normalize,
    relabel,
    symmetrize,
)
from repro.kernels import MIS, ConnectedComponents, GraphColoring, SSSP
from repro.sim import SetAssocCache, VALID, OWNED
from repro.taxonomy import (
    imbalance_metric,
    reuse_metrics,
    two_means,
    volume_bytes,
)
from tests.conftest import edge_set, has_self_loops, is_symmetric

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def edge_lists(draw, max_vertices=40, max_edges=120):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return n, src, dst


@st.composite
def normalized_graphs(draw):
    n, src, dst = draw(edge_lists())
    return normalize(from_edge_list(n, src, dst))


common = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Graph invariants
# ----------------------------------------------------------------------


class TestGraphProperties:
    @common
    @given(edge_lists())
    def test_csr_roundtrip_preserves_edges(self, data):
        n, src, dst = data
        g = from_edge_list(n, src, dst)
        rebuilt = sorted(zip(
            np.repeat(np.arange(n), g.out_degrees).tolist(),
            g.indices.tolist(),
        ))
        assert rebuilt == sorted(zip(src, dst))

    @common
    @given(normalized_graphs())
    def test_normalize_produces_simple_symmetric(self, g):
        assert not has_self_loops(g)
        assert is_symmetric(g)

    @common
    @given(normalized_graphs())
    def test_symmetrize_idempotent_on_normalized(self, g):
        assert edge_set(symmetrize(g)) == edge_set(g)

    @common
    @given(normalized_graphs(), st.integers(0, 2**32 - 1))
    def test_relabel_preserves_structure(self, g, seed):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(g.num_vertices)
        h = relabel(g, perm)
        assert h.num_edges == g.num_edges
        assert sorted(h.out_degrees) == sorted(g.out_degrees)

    @common
    @given(normalized_graphs())
    def test_in_edges_mirror_out_edges(self, g):
        # For a symmetric graph the in-edge view equals the out-edge view.
        assert np.array_equal(g.in_indptr, g.indptr)
        assert np.array_equal(np.sort(g.in_indices), np.sort(g.indices))


# ----------------------------------------------------------------------
# Taxonomy invariants
# ----------------------------------------------------------------------


class TestTaxonomyProperties:
    @common
    @given(normalized_graphs(), st.sampled_from([32, 64, 256]))
    def test_reuse_in_unit_interval(self, g, tb):
        m = reuse_metrics(g, tb_size=tb)
        assert 0.0 <= m.reuse <= 1.0
        assert m.anl >= 0 and m.anr >= 0

    @common
    @given(normalized_graphs(), st.sampled_from([32, 64, 256]))
    def test_anl_anr_partition_degree(self, g, tb):
        m = reuse_metrics(g, tb_size=tb)
        avg_deg = g.num_edges / g.num_vertices
        assert m.anl + m.anr == pytest.approx(avg_deg)

    @common
    @given(normalized_graphs())
    def test_imbalance_in_unit_interval(self, g):
        assert 0.0 <= imbalance_metric(g, tb_size=64) <= 1.0

    @common
    @given(normalized_graphs(), st.integers(1, 64))
    def test_volume_monotone_in_sms(self, g, sms):
        assert volume_bytes(g, num_sms=sms) >= volume_bytes(g, num_sms=sms + 1)

    @common
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=30))
    def test_two_means_brackets_data(self, values):
        low, high = two_means(values)
        assert min(values) <= low <= high <= max(values)


# ----------------------------------------------------------------------
# Cache invariants
# ----------------------------------------------------------------------


class TestCacheProperties:
    @common
    @given(
        st.lists(
            st.tuples(st.integers(0, 60), st.sampled_from([VALID, OWNED])),
            min_size=1, max_size=200,
        )
    )
    def test_capacity_never_exceeded(self, accesses):
        cache = SetAssocCache(16, 4)
        for line, state in accesses:
            cache.install(line, state)
        assert cache.live_lines() <= cache.num_lines
        for cache_set in cache._sets:
            assert len(cache_set) <= cache.assoc

    @common
    @given(st.lists(st.integers(0, 60), min_size=1, max_size=100))
    def test_install_then_peek(self, lines):
        cache = SetAssocCache(64, 8)
        for line in lines:
            cache.install(line, VALID)
            assert cache.peek(line) == VALID

    @common
    @given(st.lists(st.integers(0, 60), min_size=1, max_size=100),
           st.integers(0, 5))
    def test_invalidate_all_clears_everything(self, lines, extra):
        cache = SetAssocCache(32, 4)
        for line in lines:
            cache.install(line, VALID if line % 2 else OWNED)
        cache.invalidate_all()
        assert cache.live_lines() == 0


# ----------------------------------------------------------------------
# Kernel result invariants on arbitrary graphs
# ----------------------------------------------------------------------


class TestKernelProperties:
    @common
    @given(normalized_graphs())
    def test_mis_always_independent_and_maximal(self, g):
        if g.num_edges == 0 and g.num_vertices == 0:
            return
        state = MIS(g).functional()
        in_set = state == 1
        src = np.repeat(np.arange(g.num_vertices), g.out_degrees)
        assert not (in_set[src] & in_set[g.indices]).any()
        for v in np.nonzero(state == 2)[0]:
            assert in_set[g.neighbors(v)].any()

    @common
    @given(normalized_graphs())
    def test_coloring_always_proper(self, g):
        color = GraphColoring(g).functional()
        assert (color >= 0).all()
        src = np.repeat(np.arange(g.num_vertices), g.out_degrees)
        assert (color[src] != color[g.indices]).all()

    @common
    @given(normalized_graphs())
    def test_cc_labels_are_component_minima(self, g):
        labels = ConnectedComponents(g).functional()
        # Each label must be the smallest vertex id within its group, and
        # adjacent vertices must share a label.
        src = np.repeat(np.arange(g.num_vertices), g.out_degrees)
        assert (labels[src] == labels[g.indices]).all()
        for label in np.unique(labels):
            members = np.nonzero(labels == label)[0]
            assert label == members.min()

    @common
    @given(normalized_graphs())
    def test_sssp_triangle_inequality(self, g):
        if g.num_vertices == 0:
            return
        kernel = SSSP(g)
        dist = kernel.functional()
        src = np.repeat(np.arange(g.num_vertices), g.out_degrees)
        weights = (g.weights if g.weights is not None
                   else np.ones(g.num_edges))
        finite = np.isfinite(dist[src])
        # Relaxed edges: dist[t] <= dist[s] + w for every edge.
        assert (dist[g.indices[finite]]
                <= dist[src[finite]] + weights[finite] + 1e-9).all()
        assert dist[kernel.source] == 0.0
