"""Dataset stand-ins must land in the paper's taxonomy cells (Table II)."""

import pytest

from repro.graph import (
    DATASET_KEYS,
    DEFAULT_SIM_SCALE,
    PAPER_DATASETS,
    load_dataset,
    sim_dataset,
)
from repro.sim.config import scaled_system
from repro.taxonomy import profile_graph
from tests.conftest import has_self_loops, is_symmetric


class TestRegistry:
    def test_six_datasets(self):
        assert set(DATASET_KEYS) == {"AMZ", "DCT", "EML", "OLS", "RAJ", "WNG"}

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("XYZ")

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            load_dataset("RAJ", scale=0)

    def test_paper_stats_recorded(self):
        amz = PAPER_DATASETS["AMZ"].paper
        assert amz.vertices == 410236
        assert amz.volume_class == "H"


@pytest.mark.parametrize("key", DATASET_KEYS)
class TestSimScaleClasses:
    def test_classes_match_paper(self, key):
        profile = profile_graph(sim_dataset(key),
                                scaled_system(DEFAULT_SIM_SCALE[key]))
        ref = PAPER_DATASETS[key].paper
        assert profile.volume_class.value == ref.volume_class
        assert profile.reuse_class.value == ref.reuse_class
        assert profile.imbalance_class.value == ref.imbalance_class

    def test_normalized_input(self, key):
        graph = sim_dataset(key)
        assert not has_self_loops(graph)
        assert is_symmetric(graph)

    def test_weighted_for_sssp(self, key):
        graph = sim_dataset(key)
        assert graph.weights is not None
        assert graph.weights.min() >= 1

    def test_deterministic(self, key):
        a = sim_dataset(key)
        b = sim_dataset(key)
        assert a.num_edges == b.num_edges

    def test_name_encodes_scale(self, key):
        graph = sim_dataset(key)
        assert graph.name == f"{key}/{DEFAULT_SIM_SCALE[key]}"
