"""Unit tests for the timing engine and consistency semantics."""

import random

import pytest

from repro.configs import parse_config
from repro.sim import (
    DRF0,
    DRF1,
    DRFRLX,
    GPUSimulator,
    KernelTrace,
    SystemConfig,
    acquire,
    atomic,
    barrier,
    compute,
    get_model,
    load,
    release,
    simulate,
    store,
)


@pytest.fixture
def cfg():
    return SystemConfig(
        num_sms=2, l1_bytes=4096, l2_bytes=64 * 1024,
        tb_size=64, max_tbs_per_sm=2, kernel_launch_cycles=100,
    )


def one_warp_kernel(ops, name="k"):
    k = KernelTrace(name)
    k.add_block([ops])
    return k


class TestConsistencyModels:
    def test_lookup(self):
        assert get_model("drf0") is DRF0
        assert get_model("DRF1") is DRF1
        assert get_model("R") is DRFRLX

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_model("sc")

    def test_window_resolution(self, cfg):
        assert DRF0.window(cfg) == 1
        assert DRF1.window(cfg) == 1
        assert DRFRLX.window(cfg) == cfg.relaxed_atomic_window


class TestBasicExecution:
    def test_empty_kernel(self, cfg):
        result = simulate([KernelTrace("empty")], cfg, "gpu", "drf0")
        assert result.cycles == 0

    def test_compute_only(self, cfg):
        k = one_warp_kernel([acquire(), compute(100), release()])
        result = simulate([k], cfg, "gpu", "drf0")
        assert result.cycles >= 100

    def test_kernel_launch_gap(self, cfg):
        k = one_warp_kernel([acquire(), compute(10), release()])
        one = simulate([k], cfg, "gpu", "drf0").cycles
        k2 = one_warp_kernel([acquire(), compute(10), release()])
        k3 = one_warp_kernel([acquire(), compute(10), release()])
        two = simulate([k2, k3], cfg, "gpu", "drf0").cycles
        assert two >= 2 * one + cfg.kernel_launch_cycles - 1

    def test_per_kernel_cycles_recorded(self, cfg):
        kernels = [one_warp_kernel([acquire(), compute(5), release()])
                   for _ in range(3)]
        result = simulate(kernels, cfg, "gpu", "drf0")
        assert len(result.kernel_cycles) == 3

    def test_switch_runs_on_the_one_clock(self, cfg):
        from repro.sim.coherence import make_memory_system

        sim = GPUSimulator(cfg, "gpu", "drf0")
        sim.feed(one_warp_kernel([acquire(), load([1]), release()]))
        denovo = make_memory_system("denovo", cfg)
        sim.switch(denovo, "drfrlx", cost=700)
        sim.feed(one_warp_kernel([acquire(), load([1]), release()]))
        result = sim.result()
        first, second = result.kernel_cycles
        assert result.cycles == (first + cfg.kernel_launch_cycles + 700
                                 + second)
        assert sim.memory is denovo and sim.consistency is DRFRLX
        assert result.memory_stats is denovo.stats

    def test_breakdown_total_positive(self, cfg):
        k = one_warp_kernel([acquire(), load([1, 2, 3]), release()])
        result = simulate([k], cfg, "gpu", "drf0")
        assert result.breakdown.total > 0

    def test_kernels_do_not_inherit_phantom_queueing(self, cfg):
        """Back-to-back identical kernels should cost about the same.

        Regression test: resource free-times are absolute, so each kernel
        must run at the global clock offset, not restart at zero.
        """
        k = [one_warp_kernel(
            [acquire()] + [load([i]) for i in range(50)] + [release()]
        ) for _ in range(3)]
        result = simulate(k, cfg, "gpu", "drf1")
        first, *rest = result.kernel_cycles
        for duration in rest:
            assert duration <= first * 1.5


class TestWarpInterleaving:
    def test_two_warps_overlap(self, cfg):
        """Two warps with long loads should overlap, not serialize."""
        ops = [acquire()] + [load([i * 64]) for i in range(20)] + [release()]
        k1 = one_warp_kernel(list(ops))
        solo = simulate([k1], cfg, "gpu", "drf0").cycles

        k2 = KernelTrace("two")
        k2.add_block([list(ops), [op for op in ops]])
        duo = simulate([k2], cfg, "gpu", "drf0").cycles
        assert duo < 2 * solo

    def test_blocks_spread_over_sms(self, cfg):
        ops = [acquire(), compute(1000), release()]
        k = KernelTrace("spread")
        k.add_block([list(ops)])
        k.add_block([list(ops)])
        result = simulate([k], cfg, "gpu", "drf0")
        # Two TBs on two SMs run concurrently: ~1000 cycles, not ~2000.
        assert result.cycles < 1500


class TestBarrier:
    def test_barrier_joins_warps(self, cfg):
        k = KernelTrace("bar")
        fast = [acquire(), compute(1), barrier(), compute(1), release()]
        slow = [acquire(), compute(500), barrier(), compute(1), release()]
        k.add_block([fast, slow])
        result = simulate([k], cfg, "gpu", "drf0")
        assert result.cycles >= 500

    def test_barrier_scopes_to_block(self, cfg):
        k = KernelTrace("bar2")
        k.add_block([[acquire(), barrier(), release()],
                     [acquire(), barrier(), release()]])
        k.add_block([[acquire(), compute(300), release()]])
        result = simulate([k], cfg, "gpu", "drf0")
        # The barrier in block 0 does not wait for block 1's compute.
        assert result.cycles >= 300

    @pytest.mark.parametrize("blocks", [
        # One warp parks at the barrier; its partner retires without
        # ever arriving.
        [[[compute(5), barrier(), compute(1000)], [compute(5)]]],
        # A warp whose last op is a barrier retires without arriving.
        [[[compute(5), barrier()], [compute(5), barrier(), compute(1000)]]],
    ], ids=["partner-retires", "trailing-barrier"])
    def test_unfilled_barrier_fails_closed(self, cfg, blocks):
        # The parked warp's remaining ops must not be dropped silently.
        with pytest.raises(ValueError, match="'d'.*barrier"):
            simulate([KernelTrace("d", blocks=blocks)], cfg, "gpu", "drf0")

    def test_undispatched_block_fails_closed(self):
        # An empty block activated on a retirement frees its slot without
        # dispatching the next pending block.
        one_slot = SystemConfig(num_sms=1, max_tbs_per_sm=1)
        k = KernelTrace("e", blocks=[[[compute(1)]], [], [[compute(1)]]])
        with pytest.raises(ValueError, match="'e'.*1 never dispatched"):
            simulate([k], one_slot, "gpu", "drf0")


class TestAtomicSemantics:
    def _atomic_chain(self, n, line_stride=64):
        ops = [acquire()]
        for i in range(n):
            ops.append(atomic([(i * line_stride, 1)]))
        ops.append(release())
        return one_warp_kernel(ops)

    def test_drfrlx_overlaps_atomics(self, cfg):
        drf1 = simulate([self._atomic_chain(64)], cfg, "gpu", "drf1").cycles
        rlx = simulate([self._atomic_chain(64)], cfg, "gpu", "drfrlx").cycles
        assert rlx < drf1 * 0.6

    def test_drf0_slower_than_drf1(self, cfg):
        drf0 = simulate([self._atomic_chain(32)], cfg, "gpu", "drf0").cycles
        drf1 = simulate([self._atomic_chain(32)], cfg, "gpu", "drf1").cycles
        assert drf0 >= drf1

    def test_drf0_invalidates_on_atomic(self, cfg):
        k = one_warp_kernel([
            acquire(), load([999]), atomic([(5, 1)]), load([999]), release(),
        ])
        sim = GPUSimulator(cfg, "gpu", "drf0")
        sim.run([k])
        # The second load of line 999 misses again: DRF0's atomic
        # self-invalidated the L1.
        assert sim.memory.stats.l1_misses == 2

    def test_drf1_preserves_l1_across_atomics(self, cfg):
        k = one_warp_kernel([
            acquire(), load([999]), atomic([(5, 1)]), load([999]), release(),
        ])
        sim = GPUSimulator(cfg, "gpu", "drf1")
        sim.run([k])
        assert sim.memory.stats.l1_hits == 1

    def test_needs_value_blocks_relaxed_atomics(self, cfg):
        def chain(needs):
            ops = [acquire()]
            for i in range(32):
                ops.append(atomic([(i * 64, 1)], needs_value=needs))
            ops.append(release())
            return one_warp_kernel(ops)

        free = simulate([chain(False)], cfg, "gpu", "drfrlx").cycles
        blocked = simulate([chain(True)], cfg, "gpu", "drfrlx").cycles
        assert blocked > free

    def test_lanes_of_one_instruction_concurrent_under_drf1(self, cfg):
        """32 lanes' atomics (one op) ~ cost of one round, not 32 rounds."""
        pairs = [(i * 64, 1) for i in range(32)]
        wide = one_warp_kernel([acquire(), atomic(pairs), release()])
        narrow = self._atomic_chain(32)
        t_wide = simulate([wide], cfg, "gpu", "drf1").cycles
        t_narrow = simulate([narrow], cfg, "gpu", "drf1").cycles
        assert t_wide < t_narrow * 0.5

    def test_release_waits_for_store_drain(self, cfg):
        k = one_warp_kernel([acquire(), store([5]), release()])
        result = simulate([k], cfg, "gpu", "drf1")
        assert result.cycles >= cfg.l2_latency_min


class TestStallAttribution:
    def test_load_heavy_kernel_reports_data(self, cfg):
        ops = [acquire()] + [load([i * 64]) for i in range(100)] + [release()]
        result = simulate([one_warp_kernel(ops)], cfg, "gpu", "drf0")
        fr = result.breakdown.fractions()
        assert fr["data"] > fr["sync"]

    def test_atomic_heavy_drf1_reports_sync(self, cfg):
        ops = [acquire()] + [atomic([(5, 1)]) for _ in range(100)] + [release()]
        result = simulate([one_warp_kernel(ops)], cfg, "gpu", "drf1")
        fr = result.breakdown.fractions()
        assert fr["sync"] > fr["data"]

    def test_compute_reports_comp(self, cfg):
        ops = [acquire()] + [compute(50) for _ in range(20)] + [release()]
        result = simulate([one_warp_kernel(ops)], cfg, "gpu", "drf0")
        fr = result.breakdown.fractions()
        # One warp on one SM: the other SM is idle; the busy SM's time
        # should be dominated by compute waits, not memory.
        assert fr["comp"] > fr["data"] + fr["sync"]
        assert fr["comp"] > 0.3

    def test_unbalanced_blocks_report_idle(self, cfg):
        k = KernelTrace("skew")
        k.add_block([[acquire(), compute(1000), release()]])
        k.add_block([[acquire(), compute(1), release()]])
        k.add_block([[acquire(), compute(1), release()]])
        result = simulate([k], cfg, "gpu", "drf0")
        assert result.breakdown.fractions()["idle"] > 0.3


class TestIncrementalAPI:
    def test_feed_matches_run(self, cfg):
        def kernels():
            return [one_warp_kernel([acquire(), load([i]), release()], f"k{i}")
                    for i in range(3)]

        batch = simulate(kernels(), cfg, "gpu", "drf1")
        sim = GPUSimulator(cfg, "gpu", "drf1")
        for k in kernels():
            sim.feed(k)
        assert sim.result().cycles == batch.cycles

    def test_result_is_snapshot(self, cfg):
        sim = GPUSimulator(cfg, "gpu", "drf1")
        sim.feed(one_warp_kernel([acquire(), compute(5), release()]))
        first = sim.result().cycles
        sim.feed(one_warp_kernel([acquire(), compute(5), release()]))
        assert sim.result().cycles > first


CONFIGS = ("TG0", "TG1", "TGR", "TD0", "TD1", "TDR",
           "SG0", "SG1", "SGR", "SD0", "SD1", "SDR")


def _random_op(rng: random.Random) -> tuple:
    k = rng.randint(0, 5)
    if k == 0:
        return compute(rng.randint(1, 8))
    if k == 1:
        return load(tuple(rng.randint(0, 50)
                          for _ in range(rng.randint(1, 6))))
    if k == 2:
        return store(tuple(rng.randint(0, 50)
                           for _ in range(rng.randint(1, 4))))
    if k == 3:
        pairs = tuple((rng.randint(0, 20), rng.randint(1, 4))
                      for _ in range(rng.randint(1, 5)))
        return atomic(pairs, rng.random() < 0.5)
    if k == 4:
        return acquire()
    return release()


def _random_trace(rng: random.Random, name: str) -> KernelTrace:
    """A small random kernel mixing every op kind.

    Every warp of a block crosses the same number of barriers, and no
    warp ends on one, so every barrier fills and the kernel completes.
    """
    blocks = []
    for _ in range(rng.randint(1, 3)):
        barriers = rng.randint(0, 2)
        warps = []
        for _ in range(rng.randint(1, 4)):
            ops = []
            for segment in range(barriers + 1):
                if segment:
                    ops.append(barrier())
                ops.extend(_random_op(rng)
                           for _ in range(rng.randint(1, 6)))
            warps.append(ops)
        blocks.append(warps)
    return KernelTrace(name, blocks=blocks)


class TestRandomTraceProperties:
    """Randomized traces over all twelve configurations."""

    @pytest.mark.parametrize("code", CONFIGS)
    def test_stall_buckets_cover_every_sm_cycle(self, code):
        config = parse_config(code)
        system = SystemConfig()
        rng = random.Random(f"buckets-{code}")
        for seed in range(60):
            trace = _random_trace(rng, f"prop{seed}")
            result = simulate([trace], system, config.coherence,
                              config.consistency)
            b = result.breakdown
            total = b.busy + b.comp + b.data + b.sync + b.idle
            assert total == system.num_sms * result.cycles, \
                f"{code} seed {seed}: {b.to_dict()} vs {result.cycles}"

    @pytest.mark.parametrize("code", CONFIGS)
    def test_feed_one_at_a_time_matches_run(self, code):
        config = parse_config(code)
        system = SystemConfig()
        rng = random.Random(f"feed-{code}")
        for seed in range(5):
            traces = [_random_trace(rng, f"seq{seed}-{i}") for i in range(3)]
            whole = GPUSimulator(system, config.coherence,
                                 config.consistency).run(traces)
            fed = GPUSimulator(system, config.coherence, config.consistency)
            for trace in traces:
                fed.feed(trace)
            assert fed.result().to_dict() == whole.to_dict()
            # Launch gaps belong to no SM bucket; kernel time does.
            b = whole.breakdown
            assert (b.busy + b.comp + b.data + b.sync + b.idle
                    == system.num_sms * sum(whole.kernel_cycles))
