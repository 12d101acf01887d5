"""Unit tests for SystemConfig (Table IV) and scaling."""

import pytest

from repro.sim import DEFAULT_SYSTEM, SystemConfig, scaled_system


class TestTable4Defaults:
    def test_paper_parameters(self):
        cfg = DEFAULT_SYSTEM
        assert cfg.num_sms == 15
        assert cfg.gpu_frequency_mhz == 700
        assert cfg.cpu_frequency_mhz == 2000
        assert cfg.cpu_cores == 1
        assert cfg.l1_bytes == 32 * 1024
        assert cfg.l1_assoc == 8
        assert cfg.l1_banks == 8
        assert cfg.l2_bytes == 4 * 1024 * 1024
        assert cfg.l2_banks == 16
        assert cfg.store_buffer_entries == 128
        assert cfg.l1_mshrs == 128
        assert cfg.l1_hit_latency == 1

    def test_latency_ranges(self):
        cfg = DEFAULT_SYSTEM
        assert (cfg.remote_l1_latency_min, cfg.remote_l1_latency_max) == (35, 83)
        assert (cfg.l2_latency_min, cfg.l2_latency_max) == (29, 61)
        assert (cfg.mem_latency_min, cfg.mem_latency_max) == (197, 261)


class TestDerivedGeometry:
    def test_warps_per_tb(self):
        assert DEFAULT_SYSTEM.warps_per_tb == 8

    def test_elements_per_line(self):
        assert DEFAULT_SYSTEM.elements_per_line == 16

    def test_cache_lines(self):
        assert DEFAULT_SYSTEM.l1_lines == 512
        assert DEFAULT_SYSTEM.l2_lines == 65536

    def test_tb_must_be_warp_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            SystemConfig(tb_size=100)

    @pytest.mark.parametrize("field, value", [
        ("num_sms", 4.0), ("num_sms", "4"), ("l2_banks", True),
        ("kernel_launch_cycles", None)])
    def test_fields_must_be_ints(self, field, value):
        with pytest.raises(ValueError, match=field):
            SystemConfig(**{field: value})

    def test_positive_resources(self):
        with pytest.raises(ValueError):
            SystemConfig(num_sms=0)

    @pytest.mark.parametrize("field, value, message", [
        # zero geometry used to crash inside the engine
        ("tb_size", 0, "tb_size must be positive"),
        ("line_bytes", 0, "line_bytes must be positive"),
        ("l1_assoc", 0, "l1_assoc must be positive"),
        ("l2_assoc", 0, "l2_assoc must be positive"),
        ("l2_banks", 0, "l2_banks must be positive"),
        ("mem_channels", 0, "mem_channels must be positive"),
        ("relaxed_atomic_window", 0, "relaxed_atomic_window must be positive"),
        # negative latencies and occupancies used to run and return numbers
        ("l1_hit_latency", -1, "l1_hit_latency must be >= 0"),
        ("mem_occupancy", -6, "mem_occupancy must be >= 0"),
        ("kernel_launch_cycles", -1, "kernel_launch_cycles must be >= 0"),
        # an inverted latency range
        ("l2_latency_min", 70, "l2_latency_min must be <= l2_latency_max"),
        ("mem_latency_max", 100, "mem_latency_min must be <= mem_latency_max"),
    ])
    def test_impossible_machines_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SystemConfig(**{field: value})

    @pytest.mark.parametrize("field", [
        "kernel_launch_cycles", "l1_hit_latency", "mem_occupancy"])
    def test_zero_is_legal_where_it_means_something(self, field):
        assert getattr(SystemConfig(**{field: 0}), field) == 0

    def test_equal_latency_bounds_are_legal(self):
        cfg = SystemConfig(l2_latency_min=40, l2_latency_max=40)
        assert cfg.l2_latency(3, 17) == 40


class TestLatencyModel:
    def test_l2_latency_in_range(self):
        cfg = DEFAULT_SYSTEM
        for sm in range(cfg.num_sms):
            for line in range(0, 2000, 37):
                lat = cfg.l2_latency(sm, line)
                assert cfg.l2_latency_min <= lat <= cfg.l2_latency_max

    def test_mem_latency_in_range(self):
        cfg = DEFAULT_SYSTEM
        for line in range(0, 500, 7):
            lat = cfg.mem_latency(3, line)
            assert cfg.mem_latency_min <= lat <= cfg.mem_latency_max

    def test_remote_l1_in_range(self):
        cfg = DEFAULT_SYSTEM
        for a in range(cfg.num_sms):
            for b in range(cfg.num_sms):
                lat = cfg.remote_l1_latency(a, b)
                assert (cfg.remote_l1_latency_min <= lat
                        <= cfg.remote_l1_latency_max)

    def test_deterministic(self):
        cfg = DEFAULT_SYSTEM
        assert cfg.l2_latency(2, 99) == cfg.l2_latency(2, 99)

    def test_bank_mapping(self):
        cfg = DEFAULT_SYSTEM
        assert cfg.l2_bank(0) == 0
        assert cfg.l2_bank(cfg.l2_banks) == 0
        assert cfg.l2_bank(cfg.l2_banks + 3) == 3


class TestScaledSystem:
    def test_halving(self):
        cfg = scaled_system(2)
        assert cfg.l1_bytes == 16 * 1024
        assert cfg.l2_bytes == 2 * 1024 * 1024

    def test_latencies_untouched(self):
        cfg = scaled_system(16)
        assert cfg.l2_latency_max == DEFAULT_SYSTEM.l2_latency_max
        assert cfg.num_sms == DEFAULT_SYSTEM.num_sms

    def test_clamped_to_one_set(self):
        cfg = scaled_system(10**6)
        assert cfg.l1_bytes == cfg.l1_assoc * cfg.line_bytes

    def test_identity_scale(self):
        assert scaled_system(1) == DEFAULT_SYSTEM

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            scaled_system(0)
