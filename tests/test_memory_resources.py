"""Resource-limit and contention behavior of the memory system."""

from repro.sim import (
    DeNovoCoherence,
    GPUCoherence,
    KernelTrace,
    SystemConfig,
    acquire,
    load,
    release,
    simulate,
    store,
)


def atomic(mem, sm, line, count, t):
    """One single-pair atomic instruction through ``atomics``."""
    return mem.atomics(sm, ((line, count),), t, t)[1]


def make_cfg(**overrides):
    base = dict(num_sms=2, l1_bytes=4096, l2_bytes=64 * 1024, tb_size=64)
    base.update(overrides)
    return SystemConfig(**base)


class TestMSHRPressure:
    def test_tiny_mshr_pool_slows_miss_bursts(self):
        def run(mshrs):
            cfg = make_cfg(l1_mshrs=mshrs)
            ops = [acquire()]
            ops.append(load([i * 64 for i in range(64)]))  # 64-line burst
            ops.append(release())
            k = KernelTrace("m")
            k.add_block([ops])
            return simulate([k], cfg, "gpu", "drf0").cycles

        assert run(2) > run(128)


class TestStoreBufferPressure:
    def test_tiny_store_buffer_blocks_stores(self):
        def run(entries):
            cfg = make_cfg(store_buffer_entries=entries)
            ops = [acquire()]
            for i in range(64):
                ops.append(store([i * 64]))
            ops.append(release())
            k = KernelTrace("s")
            k.add_block([ops])
            return simulate([k], cfg, "gpu", "drf0").cycles

        assert run(1) > run(128)


class TestBankAndChannelContention:
    def test_single_bank_serializes(self):
        # Heavy per-access occupancy makes bank throughput the binding
        # resource, so halving the bank count must show up; the NUCA
        # latency hash otherwise drowns the 2-cycle default occupancy at
        # this tiny scale.
        wide = make_cfg(l2_banks=16, l2_bank_occupancy=50)
        narrow = make_cfg(l2_banks=1, l2_bank_occupancy=50)

        def run(cfg):
            from repro.sim import GPUSimulator

            def kernel(name):
                k = KernelTrace(name)
                for tb in range(4):
                    ops = [acquire()]
                    ops += [load([tb * 1000 + i]) for i in range(50)]
                    ops.append(release())
                    k.add_block([ops])
                return k

            sim = GPUSimulator(cfg, "gpu", "drf0")
            sim.feed(kernel("warmup"))  # fill the L2 from DRAM
            # The second pass misses the (invalidated) L1s but hits the
            # L2, so bank throughput is the binding resource.
            return sim.feed(kernel("measure"))

        assert run(narrow) > run(wide)

    def test_single_memory_channel_serializes(self):
        wide = make_cfg(mem_channels=8)
        narrow = make_cfg(mem_channels=1, mem_occupancy=20)

        def run(cfg):
            k = KernelTrace("c")
            ops = [acquire()]
            ops += [load([i * 64]) for i in range(100)]  # all DRAM misses
            ops.append(release())
            k.add_block([ops])
            return simulate([k], cfg, "gpu", "drf0").cycles

        assert run(narrow) > run(wide)


class TestMigratoryOwnership:
    def test_second_consecutive_remote_request_migrates(self):
        cfg = make_cfg()
        mem = DeNovoCoherence(cfg)
        atomic(mem, 0, 5, 1, 0.0)
        assert mem.owner[5] == 0
        atomic(mem, 1, 5, 1, 100.0)   # forwarded, owner keeps the line
        assert mem.owner[5] == 0
        atomic(mem, 1, 5, 1, 200.0)   # migratory: second in a row from SM 1
        assert mem.owner[5] == 1

    def test_interleaved_requesters_do_not_migrate(self):
        cfg = make_cfg()
        mem = DeNovoCoherence(cfg)
        atomic(mem, 0, 5, 1, 0.0)
        for t, sm in ((100, 1), (200, 0), (300, 1), (400, 0)):
            atomic(mem, sm, 5, 1, float(t))
        assert mem.owner[5] == 0  # contended line stays put

    def test_migrated_line_is_local_for_new_owner(self):
        cfg = make_cfg()
        mem = DeNovoCoherence(cfg)
        atomic(mem, 0, 5, 1, 0.0)
        atomic(mem, 1, 5, 1, 100.0)
        atomic(mem, 1, 5, 1, 200.0)  # migrates
        before = mem.stats.atomics_local
        atomic(mem, 1, 5, 1, 300.0)
        assert mem.stats.atomics_local == before + 1


class TestOwnedWritebacks:
    def test_writeback_counter_increments_on_owned_eviction(self):
        cfg = SystemConfig(num_sms=2, l1_bytes=2 * 64, l1_assoc=2,
                           l2_bytes=64 * 1024)
        mem = DeNovoCoherence(cfg)
        lines = [0, cfg.l1_lines, 2 * cfg.l1_lines, 3 * cfg.l1_lines]
        for i, line in enumerate(lines):
            atomic(mem, 0, line, 1, float(i * 1000))
        assert mem.stats.extra.get("owned_writebacks", 0) >= 1

    def test_gpu_coherence_never_writes_back_owned(self):
        cfg = make_cfg()
        mem = GPUCoherence(cfg)
        for i in range(100):
            mem.load(0, (i,), float(i * 10))
        assert "owned_writebacks" not in mem.stats.extra
