"""Unit tests for the GPU and DeNovo coherence protocols."""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import (
    DeNovoCoherence,
    GPUCoherence,
    SystemConfig,
    make_memory_system,
)


def atomic(mem, sm, line, count, t):
    """One single-pair atomic instruction through ``atomics``."""
    return mem.atomics(sm, ((line, count),), t, t)[1]


@pytest.fixture
def cfg():
    return SystemConfig(num_sms=4, l1_bytes=4096, l2_bytes=64 * 1024)


class TestFactory:
    def test_names(self, cfg):
        assert isinstance(make_memory_system("gpu", cfg), GPUCoherence)
        assert isinstance(make_memory_system("denovo", cfg), DeNovoCoherence)

    def test_unknown_rejected(self, cfg):
        with pytest.raises(ValueError, match="protocol"):
            make_memory_system("mesi", cfg)


class TestGPULoads:
    def test_miss_then_hit(self, cfg):
        mem = GPUCoherence(cfg)
        t1 = mem.load(0, (100,), 0.0)
        assert t1 > cfg.l2_latency_min  # first access misses to L2/DRAM
        t2 = mem.load(0, (100,), t1)
        assert t2 - t1 <= cfg.l1_hit_latency + 1
        assert mem.stats.l1_hits == 1
        assert mem.stats.l1_misses == 1

    def test_l2_hit_cheaper_than_memory(self, cfg):
        mem = GPUCoherence(cfg)
        t1 = mem.load(0, (100,), 0.0)  # DRAM fill
        t2 = mem.load(1, (100,), 0.0)  # other core: L2 hit
        assert t2 < t1

    def test_multi_line_load_latency_is_max(self, cfg):
        mem = GPUCoherence(cfg)
        single = mem.load(0, (50,), 0.0)
        mem2 = GPUCoherence(cfg)
        multi = mem2.load(0, (50, 51, 52), 0.0)
        assert multi >= single

    def test_acquire_invalidates(self, cfg):
        mem = GPUCoherence(cfg)
        mem.load(0, (7,), 0.0)
        mem.acquire(0)
        before = mem.stats.l1_misses
        mem.load(0, (7,), 1000.0)
        assert mem.stats.l1_misses == before + 1

    def test_acquire_is_per_sm(self, cfg):
        mem = GPUCoherence(cfg)
        mem.load(0, (7,), 0.0)
        mem.load(1, (7,), 0.0)
        mem.acquire(0)
        before = mem.stats.l1_hits
        mem.load(1, (7,), 1000.0)
        assert mem.stats.l1_hits == before + 1


class TestGPUStoresAndAtomics:
    def test_store_is_write_through(self, cfg):
        mem = GPUCoherence(cfg)
        accept, drain = mem.store(0, (9,), 0.0)
        assert drain > accept  # ack comes later than buffer acceptance
        # No-allocate: a subsequent load still misses the L1.
        mem.load(0, (9,), drain)
        assert mem.stats.l1_misses == 1

    def test_same_line_atomics_serialize(self, cfg):
        mem = GPUCoherence(cfg)
        atomic(mem, 0, 5, 1, 0.0)  # first access fills the line
        base = atomic(mem, 0, 5, 1, 10_000.0)
        t1 = atomic(mem, 0, 5, 1, 20_000.0)
        t2 = atomic(mem, 1, 5, 1, 20_000.0)
        # Two concurrent same-line atomics: the second queues one RMW
        # slot behind the first at the bank's atomic unit.
        later = max(t1, t2)
        assert later - 20_000.0 >= (base - 10_000.0) + cfg.atomic_occupancy

    def test_different_line_atomics_do_not_serialize(self, cfg):
        mem = GPUCoherence(cfg)
        t1 = atomic(mem, 0, 5, 1, 0.0)
        t2 = atomic(mem, 1, 6 + cfg.l2_banks, 1, 0.0)  # different bank
        assert abs(t1 - t2) < cfg.mem_latency_max

    def test_count_scales_occupancy(self, cfg):
        one = atomic(GPUCoherence(cfg), 0, 5, 1, 0.0)
        many = atomic(GPUCoherence(cfg), 0, 5, 10, 0.0)
        assert many - one == pytest.approx(9 * cfg.atomic_occupancy)


class TestDeNovo:
    def test_atomic_registers_ownership(self, cfg):
        mem = DeNovoCoherence(cfg)
        atomic(mem, 0, 5, 1, 0.0)
        assert mem.owner[5] == 0
        assert mem.stats.ownership_registrations == 1

    def test_owned_atomic_is_local_and_fast(self, cfg):
        mem = DeNovoCoherence(cfg)
        t1 = atomic(mem, 0, 5, 1, 0.0)
        t2 = atomic(mem, 0, 5, 1, t1)
        assert t2 - t1 < cfg.l2_latency_min  # L1-local
        assert mem.stats.atomics_local == 1

    def test_remote_atomic_executes_at_owner(self, cfg):
        mem = DeNovoCoherence(cfg)
        atomic(mem, 0, 5, 1, 0.0)
        t = atomic(mem, 1, 5, 1, 1000.0)
        # Owner is unchanged (owner-side execution, no ping-pong).
        assert mem.owner[5] == 0
        assert mem.stats.atomics_remote_transfer == 1
        assert t - 1000.0 >= cfg.remote_l1_latency_min

    def test_owned_line_survives_acquire(self, cfg):
        mem = DeNovoCoherence(cfg)
        atomic(mem, 0, 5, 1, 0.0)
        mem.acquire(0)
        t1 = mem.load(0, (5,), 1000.0)
        assert t1 - 1000.0 <= cfg.l1_hit_latency + 1

    def test_valid_line_invalidated_on_acquire(self, cfg):
        mem = DeNovoCoherence(cfg)
        mem.load(0, (7,), 0.0)
        mem.acquire(0)
        before = mem.stats.l1_misses
        mem.load(0, (7,), 1000.0)
        assert mem.stats.l1_misses == before + 1

    def test_owned_store_needs_no_flush(self, cfg):
        mem = DeNovoCoherence(cfg)
        atomic(mem, 0, 5, 1, 0.0)
        accept, drain = mem.store(0, (5,), 1000.0)
        assert drain - 1000.0 <= cfg.l1_hit_latency

    def test_store_registers_ownership(self, cfg):
        mem = DeNovoCoherence(cfg)
        mem.store(0, (11,), 0.0)
        assert mem.owner[11] == 0

    def test_load_from_remote_owner(self, cfg):
        mem = DeNovoCoherence(cfg)
        atomic(mem, 0, 5, 1, 0.0)
        t = mem.load(1, (5,), 1000.0)
        assert t - 1000.0 >= cfg.remote_l1_latency_min
        assert mem.owner[5] == 0  # read does not steal ownership

    def test_eviction_releases_ownership(self):
        tiny = SystemConfig(
            num_sms=2, l1_bytes=2 * 64, l1_assoc=2, l2_bytes=64 * 1024
        )
        mem = DeNovoCoherence(tiny)
        # Fill the single L1 set with owned lines, then overflow it.
        lines = [0, tiny.l1_lines, 2 * tiny.l1_lines]
        for i, line in enumerate(lines):
            atomic(mem, 0, line, 1, float(i * 1000))
        assert len(mem.owner) < len(lines)


# ----------------------------------------------------------------------
# ``atomics`` batching: one call per warp instruction must be exactly the
# sequence of its single-pair calls, on both protocols.
# ----------------------------------------------------------------------

# A deliberately tiny hierarchy (2-set L1s, 8-set L2) so random histories
# hit evictions, owned writebacks, remote owners and migrations.
_TINY = SystemConfig(num_sms=4, l1_bytes=16 * 64, l2_bytes=128 * 64)

_instructions = st.lists(
    st.tuples(
        st.integers(0, _TINY.num_sms - 1),          # sm
        st.lists(st.tuples(st.integers(0, 200),    # (line, count) pairs
                           st.integers(1, 4)), max_size=8),
        st.integers(0, 300),                        # issue gap
        st.integers(0, 300),                        # floor above issue
    ),
    min_size=1, max_size=12,
)
_batching = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _state(mem):
    return (mem.stats.to_dict(), mem.sequencer, mem.owner,
            mem._l2_bank_free, mem._mem_channel_free, mem._l1_atomic_free)


@pytest.mark.parametrize("protocol", ["gpu", "denovo"])
class TestAtomicsBatching:
    @_batching
    @given(history=_instructions)
    def test_batch_equals_single_pair_calls(self, protocol, history):
        batched = make_memory_system(protocol, _TINY)
        single = make_memory_system(protocol, _TINY)
        issue = 0.0
        for sm, pairs, gap, lift in history:
            issue += gap
            floor = issue + lift
            t, done, lanes = batched.atomics(sm, tuple(pairs), floor, issue)
            assert t == floor
            want_done, want_lanes = floor, 0
            for pair in pairs:
                _, d, n = single.atomics(sm, (pair,), floor, issue)
                want_done = max(want_done, d)
                want_lanes += n
            assert (done, lanes) == (want_done, want_lanes)
            assert _state(batched) == _state(single)

    @_batching
    @given(history=_instructions, window=st.integers(1, 4))
    def test_window_bounds_outstanding(self, protocol, history, window):
        batched = make_memory_system(protocol, _TINY)
        single = make_memory_system(protocol, _TINY)
        outstanding = {sm: [] for sm in range(_TINY.num_sms)}
        chained = {sm: [] for sm in range(_TINY.num_sms)}
        issue = 0.0
        for sm, pairs, gap, lift in history:
            issue += gap
            floor = issue + lift
            t, done, lanes = batched.atomics(
                sm, tuple(pairs), floor, issue, outstanding[sm], window)
            # Chaining single-pair calls on the returned floor replays
            # the batch pair by pair, so the window is checked after each.
            want_t, want_done = floor, floor
            for pair in pairs:
                want_t, d, _ = single.atomics(
                    sm, (pair,), want_t, issue, chained[sm], window)
                want_done = max(want_done, d)
                assert want_t >= floor
                assert len(chained[sm]) <= window
                assert chained[sm] == sorted(chained[sm])
            assert (t, done, lanes) == (
                want_t, want_done, sum(c for _, c in pairs))
            assert outstanding == chained
            assert _state(batched) == _state(single)


# ----------------------------------------------------------------------
# One ``load`` serves both protocols: with no stores or atomics there are
# no owners and no OWNED lines, so GPU coherence and DeNovo read alike.
# ----------------------------------------------------------------------

_reads = st.lists(
    st.one_of(
        st.tuples(st.just("load"),
                  st.integers(0, _TINY.num_sms - 1),
                  st.lists(st.integers(0, 200), min_size=1, max_size=4,
                           unique=True),
                  st.integers(0, 300)),
        st.tuples(st.just("acquire"), st.integers(0, _TINY.num_sms - 1)),
    ),
    min_size=1, max_size=40,
)


class TestReadInvariant:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(history=_reads)
    def test_gpu_and_denovo_read_alike(self, history):
        gpu = GPUCoherence(_TINY)
        denovo = DeNovoCoherence(_TINY)
        now = 0.0
        for kind, sm, *rest in history:
            if kind == "acquire":
                assert gpu.acquire(sm) == denovo.acquire(sm)
                continue
            lines, gap = rest
            now += gap
            lines = tuple(sorted(lines))
            assert gpu.load(sm, lines, now) == denovo.load(sm, lines, now)
        assert _state(gpu) == _state(denovo)
        for a, b in zip(gpu._mshrs, denovo._mshrs):
            assert (a.free_at, a.idx) == (b.free_at, b.idx)
        for a, b in zip([*gpu.l1s, gpu.l2], [*denovo.l1s, denovo.l2]):
            assert [list(s.items()) for s in a._sets] == \
                [list(s.items()) for s in b._sets]


# ----------------------------------------------------------------------
# Seeded call histories pinned below the engine (memory_digests.json).
# ----------------------------------------------------------------------

MEMORY_DIGESTS = Path(__file__).parent / "data" / "memory_digests.json"


class TestMemoryDigests:
    """Every protocol's call histories match the committed digests exactly.

    Regenerate with ``PYTHONPATH=src python tools/make_golden_fixture.py``
    only when a memory-system change is intentional.
    """

    PAYLOAD = json.loads(MEMORY_DIGESTS.read_text())

    def test_fixture_covers_both_protocols_and_systems(self, fixture_tool):
        assert set(self.PAYLOAD["digests"]) == {
            f"{p}/{s}" for p in ("gpu", "denovo")
            for s in fixture_tool.MEMORY_SYSTEMS}
        assert self.PAYLOAD["seeds"] == fixture_tool.MEMORY_SEEDS
        assert self.PAYLOAD["calls"] == fixture_tool.MEMORY_CALLS

    @pytest.mark.parametrize("key", sorted(PAYLOAD["digests"]))
    def test_histories_match_fixture(self, fixture_tool, key):
        protocol, system = key.split("/")
        assert fixture_tool.memory_digest(protocol, system) == \
            self.PAYLOAD["digests"][key], \
            f"{key} histories drifted from the committed digests"
