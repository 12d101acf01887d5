"""Unit tests for the taxonomy metrics (Equations 1-7) and classification."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.graph import (
    DEFAULT_SIM_SCALE,
    from_edge_list,
    load_dataset,
    shuffle_labels,
    sim_dataset,
)
from repro.harness import run_sweep
from repro.model import workload_profile
from repro.sim.config import scaled_system
from repro.taxonomy import (
    APP_PROPERTIES,
    DEFAULT_THRESHOLDS,
    Control,
    Information,
    Level,
    Thresholds,
    Traversal,
    imbalance_metric,
    marked_thread_blocks,
    profile_graph,
    profile_workload,
    reuse_metrics,
    two_means,
    two_means_rows,
    volume_bytes,
    volume_kb,
    warp_max_degrees,
)


class TestVolume:
    def test_formula(self, star):
        # (6 vertices + 10 edges) * 4 bytes / 15 SMs
        assert volume_bytes(star) == pytest.approx(16 * 4 / 15)

    def test_paper_amz_volume(self):
        # Table II: AMZ = 1855.178 KB with |V|=410236, |E|=6713648.
        v, e = 410236, 6713648
        kb = (v + e) * 4 / 15 / 1024
        assert kb == pytest.approx(1855.178, abs=0.01)

    def test_sm_scaling(self, star):
        assert volume_bytes(star, num_sms=1) == 15 * volume_bytes(star)

    def test_rejects_bad_sms(self, star):
        with pytest.raises(ValueError):
            volume_bytes(star, num_sms=0)

    def test_kb_unit(self, star):
        assert volume_kb(star) == pytest.approx(volume_bytes(star) / 1024)


class TestReuse:
    def test_all_local(self):
        # All edges inside one 256-vertex thread block.
        g = from_edge_list(4, [0, 1, 1, 2], [1, 0, 2, 1])
        m = reuse_metrics(g, tb_size=256)
        assert m.anr == 0.0
        assert m.reuse == 1.0

    def test_all_remote(self):
        # Edges straddle a tiny thread-block boundary.
        g = from_edge_list(4, [0, 2], [2, 0])
        m = reuse_metrics(g, tb_size=2)
        assert m.anl == 0.0
        assert m.reuse == 0.0

    def test_anl_anr_sum_to_avg_degree(self, small_random):
        m = reuse_metrics(small_random)
        avg_degree = small_random.num_edges / small_random.num_vertices
        assert m.anl + m.anr == pytest.approx(avg_degree)

    def test_self_loops_excluded(self):
        g = from_edge_list(2, [0, 0], [0, 1])
        m = reuse_metrics(g, tb_size=256)
        assert m.anl == 0.5  # only the 0->1 edge counts

    def test_edgeless_graph(self):
        g = from_edge_list(4, [], [])
        assert reuse_metrics(g).reuse == 0.0

    def test_shuffling_mesh_destroys_reuse(self, small_mesh):
        ordered = reuse_metrics(small_mesh, tb_size=32).reuse
        shuffled = reuse_metrics(
            shuffle_labels(small_mesh, seed=5), tb_size=32
        ).reuse
        assert ordered > shuffled

    def test_range(self, small_random):
        assert 0.0 <= reuse_metrics(small_random).reuse <= 1.0


class TestKMeans:
    def test_two_obvious_clusters(self):
        low, high = two_means([1, 2, 1, 50, 52, 51])
        assert low == pytest.approx(4 / 3)
        assert high == pytest.approx(51.0)

    def test_identical_values(self):
        low, high = two_means([7, 7, 7])
        assert low == high == 7.0

    def test_single_value(self):
        low, high = two_means([3])
        assert low == high == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            two_means([])

    def test_rowwise_matches_scalar(self):
        rows = np.array([[1, 2, 50, 52], [5, 5, 5, 5]])
        lows, highs = two_means_rows(rows)
        assert lows[0] == pytest.approx(1.5)
        assert highs[0] == pytest.approx(51.0)
        assert lows[1] == highs[1] == 5.0


class TestImbalance:
    def test_regular_graph_is_balanced(self, small_mesh):
        assert imbalance_metric(small_mesh, tb_size=32) == 0.0

    def test_hub_creates_imbalance(self):
        # 256 vertices in one TB of 4 warps; vertex 0 has degree 100.
        hub_edges = [(0, i) for i in range(1, 101)]
        src = [s for s, _ in hub_edges] + [d for _, d in hub_edges]
        dst = [d for _, d in hub_edges] + [s for s, _ in hub_edges]
        g = from_edge_list(256, src, dst)
        detail = marked_thread_blocks(g, tb_size=128)
        assert detail.marked.any()
        assert imbalance_metric(g, tb_size=128) > 0

    def test_threshold_behavior(self):
        # Degree spread below the centroid threshold -> balanced.
        src = list(range(0, 64)) * 2
        dst = list(range(64, 128)) + list(range(64, 128))
        g = from_edge_list(128, src + dst, dst + src)
        assert imbalance_metric(
            g, tb_size=64, centroid_diff_threshold=1000
        ) == 0.0

    def test_warp_matrix_shape(self, small_mesh):
        rows = warp_max_degrees(small_mesh, tb_size=64)
        warps_per_tb = 64 // 32
        assert rows.shape[1] == warps_per_tb

    def test_tb_size_must_be_warp_multiple(self, small_mesh):
        with pytest.raises(ValueError, match="multiple"):
            warp_max_degrees(small_mesh, tb_size=48)

    def test_range(self, small_random):
        assert 0.0 <= imbalance_metric(small_random) <= 1.0


class TestClassification:
    def test_volume_classes(self):
        t = Thresholds()
        l1, l2, sms = 32 * 1024, 4 * 1024 * 1024, 15
        assert t.classify_volume(10_000, l1, l2, sms) is Level.LOW
        assert t.classify_volume(100_000, l1, l2, sms) is Level.MEDIUM
        assert t.classify_volume(1_000_000, l1, l2, sms) is Level.HIGH

    def test_volume_boundaries(self):
        t = Thresholds()
        l1, l2, sms = 1000, 30000, 10
        assert t.classify_volume(1499, l1, l2, sms) is Level.LOW
        assert t.classify_volume(1500, l1, l2, sms) is Level.MEDIUM
        assert t.classify_volume(3000, l1, l2, sms) is Level.MEDIUM
        assert t.classify_volume(3001, l1, l2, sms) is Level.HIGH

    def test_reuse_classes(self):
        t = DEFAULT_THRESHOLDS
        assert t.classify_reuse(0.10) is Level.LOW
        assert t.classify_reuse(0.20) is Level.MEDIUM
        assert t.classify_reuse(0.50) is Level.HIGH

    def test_imbalance_classes(self):
        t = DEFAULT_THRESHOLDS
        assert t.classify_imbalance(0.01) is Level.LOW
        assert t.classify_imbalance(0.10) is Level.MEDIUM
        assert t.classify_imbalance(0.50) is Level.HIGH

    def test_level_prints_as_letter(self):
        assert str(Level.HIGH) == "H"


class TestAlgorithmicProperties:
    def test_table3_rows(self):
        assert APP_PROPERTIES["PR"].control is Control.SYMMETRIC
        assert APP_PROPERTIES["PR"].information is Information.SOURCE
        assert APP_PROPERTIES["SSSP"].control is Control.SOURCE
        assert APP_PROPERTIES["MIS"].information is Information.SYMMETRIC
        assert APP_PROPERTIES["CLR"].information is Information.TARGET
        assert APP_PROPERTIES["BC"].control is Control.SOURCE
        assert APP_PROPERTIES["CC"].traversal is Traversal.DYNAMIC

    def test_only_cc_is_dynamic(self):
        dynamic = [k for k, p in APP_PROPERTIES.items()
                   if p.traversal is Traversal.DYNAMIC]
        assert dynamic == ["CC"]

    def test_as_row(self):
        row = APP_PROPERTIES["CC"].as_row()
        assert row["Control"] == "-"
        assert row["Traversal"] == "Dynamic"


class TestProfile:
    def test_profile_fields(self, small_random):
        p = profile_graph(small_random)
        assert p.name == "small-random"
        assert p.stats.num_vertices == small_random.num_vertices
        assert 0 <= p.reuse.reuse <= 1

    def test_workload_profile(self, small_random):
        wp = profile_workload(profile_graph(small_random), "PR")
        assert wp.key == ("small-random", "PR")

    def test_unknown_app_rejected(self, small_random):
        with pytest.raises(KeyError, match="unknown application"):
            profile_workload(profile_graph(small_random), "APSP")

    def test_as_row_has_table2_columns(self, small_random):
        row = profile_graph(small_random).as_row()
        for col in ("Graph", "Vertices", "Edges", "Volume (KB)", "ANL",
                    "ANR", "Reuse", "Imbalance"):
            assert col in row


PROFILE_DIGESTS = Path(__file__).parent / "data" / "profile_digests.json"


class TestProfilePin:
    """Every dataset's full profile at sim scale matches the committed pin.

    Regenerate with ``PYTHONPATH=src python tools/make_golden_fixture.py``
    only when a taxonomy change is intentional.
    """

    PAYLOAD = json.loads(PROFILE_DIGESTS.read_text())

    def test_every_dataset_is_pinned(self):
        assert set(self.PAYLOAD["profiles"]) == {
            f"{key}@{scale}" for key, scale in DEFAULT_SIM_SCALE.items()}

    @pytest.mark.parametrize("key", sorted(PAYLOAD["profiles"]))
    def test_sweep_profile_matches_pin(self, fixture_tool, key):
        dataset = key.split("@")[0]
        assert fixture_tool.profile_record(dataset) == \
            self.PAYLOAD["profiles"][key]

    @pytest.mark.parametrize("key", sorted(PAYLOAD["profiles"]))
    def test_model_profile_matches_pin(self, fixture_tool, key):
        # The model's entry point, given the machine the unit simulates
        # on, sees the same profile as the sweep.
        dataset, scale = key.split("@")
        profile = workload_profile(sim_dataset(dataset), "PR",
                                   scaled_system(int(scale))).graph
        assert fixture_tool.profile_as_dict(profile) == \
            self.PAYLOAD["profiles"][key]


class TestProfileAgainstSimulatedSystem:
    def test_row_volume_class_uses_the_unit_system(self):
        # At scale 128 scaled_system clamps each cache to one full set:
        # WNG runs on a 512-byte L1 (not 32 KiB / 128 = 256 bytes), and
        # its per-SM volume of ~645 bytes is under 1.5 x 512, so the
        # row's class is L, judged against the machine it simulated on.
        system = scaled_system(128)
        assert system.l1_bytes == 512
        sweep = run_sweep(graphs=("WNG",), apps=("PR",), max_iters=1,
                          scales={"WNG": 128})
        (row,) = sweep.rows
        assert row.workload.results  # simulated
        graph = row.profile.graph
        assert graph.volume_bytes < 1.5 * system.l1_bytes
        assert graph.volume_class is Level.LOW
        expected = workload_profile(load_dataset("WNG", scale=128), "PR",
                                    system)
        assert row.profile == expected
