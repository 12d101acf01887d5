"""Property-based tests for the analytic model."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.configs import figure5_configurations
from repro.graph.stats import DegreeStats
from repro.model import estimate_cost
from repro.taxonomy import (
    GraphProfile,
    Level,
    ReuseMetrics,
    profile_workload,
)

common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def workload_profiles(draw):
    levels = st.sampled_from(["L", "M", "H"])
    volume = draw(levels)
    reuse_class = draw(levels)
    imbalance = draw(levels)
    reuse = draw(st.floats(0.0, 1.0))
    max_degree = draw(st.integers(1, 10_000))
    edges = draw(st.integers(max_degree, 10**6))
    app = draw(st.sampled_from(["PR", "SSSP", "MIS", "CLR", "BC", "CC"]))
    profile = GraphProfile(
        name="g",
        stats=DegreeStats(1000, edges, max_degree, edges / 1000, 1.0),
        volume_bytes=0.0,
        reuse=ReuseMetrics(0.0, 0.0, reuse),
        imbalance=0.0,
        volume_class=Level(volume),
        reuse_class=Level(reuse_class),
        imbalance_class=Level(imbalance),
    )
    return profile_workload(profile, app)


class TestAnalyticProperties:
    @common
    @given(workload_profiles())
    def test_estimates_finite_and_positive(self, workload):
        traversal = ("dynamic" if workload.app.traversal.value == "dynamic"
                     else "static")
        for config in figure5_configurations(traversal):
            estimate = estimate_cost(workload, config)
            assert np.isfinite(estimate.total)
            assert estimate.total > 0

    @common
    @given(workload_profiles())
    def test_drf_hierarchy_holds_universally(self, workload):
        if workload.app.traversal.value == "dynamic":
            return
        from repro.configs import parse_config

        for coherence in "GD":
            drf0 = estimate_cost(workload, parse_config(f"S{coherence}0"))
            drf1 = estimate_cost(workload, parse_config(f"S{coherence}1"))
            rlx = estimate_cost(workload, parse_config(f"S{coherence}R"))
            assert drf0.total >= drf1.total >= rlx.total
