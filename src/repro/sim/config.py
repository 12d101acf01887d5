"""Simulated system parameters (Table IV) and latency model.

The paper simulates a tightly-integrated CPU-GPU system: 15 GPU CUs at
700 MHz plus one 2 GHz CPU core, private 32 KB 8-way L1s, a 4 MB 16-bank
NUCA L2 shared over a 4x4 mesh, 128-entry store buffers and L1 MSHRs, and
distance-dependent latencies (remote L1 35-83 cycles, L2 29-61 cycles,
memory 197-261 cycles).  :class:`SystemConfig` captures all of that;
:func:`scaled_system` shrinks the caches proportionally with a scaled
dataset so every taxonomy volume class is preserved (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

__all__ = ["SystemConfig", "DEFAULT_SYSTEM", "scaled_system"]

#: Fields where 0 is a machine that can exist: a free L1 hit or kernel
#: launch, a zero-latency range, an unbooked unit.  Every other field is
#: a count or a size and must be positive.
_NON_NEGATIVE = frozenset({
    "l1_hit_latency",
    "remote_l1_latency_min", "remote_l1_latency_max",
    "l2_latency_min", "l2_latency_max",
    "mem_latency_min", "mem_latency_max",
    "atomic_occupancy", "l1_atomic_occupancy", "l2_bank_occupancy",
    "mem_occupancy",
    "kernel_launch_cycles",
})


@dataclass(frozen=True)
class SystemConfig:
    """Hardware parameters of the simulated heterogeneous system."""

    # GPU organization
    num_sms: int = 15
    warp_size: int = 32
    tb_size: int = 256
    max_tbs_per_sm: int = 8
    gpu_frequency_mhz: int = 700
    # CPU (launches kernels; modeled for Table IV completeness)
    cpu_cores: int = 1
    cpu_frequency_mhz: int = 2000
    # Memory hierarchy geometry
    line_bytes: int = 64
    element_bytes: int = 4
    l1_bytes: int = 32 * 1024
    l1_assoc: int = 8
    l1_banks: int = 8
    l2_bytes: int = 4 * 1024 * 1024
    l2_assoc: int = 16
    l2_banks: int = 16
    store_buffer_entries: int = 128
    l1_mshrs: int = 128
    # Latencies (GPU cycles)
    l1_hit_latency: int = 1
    remote_l1_latency_min: int = 35
    remote_l1_latency_max: int = 83
    l2_latency_min: int = 29
    l2_latency_max: int = 61
    mem_latency_min: int = 197
    mem_latency_max: int = 261
    # Atomic unit occupancy per operation at the L2 banks
    atomic_occupancy: int = 2
    # Occupancy per operation at an L1's (single) atomic unit — narrower
    # than the L2's 16 banked units, so DeNovo only profits from L1-side
    # atomics when they actually exploit locality
    l1_atomic_occupancy: int = 5
    # L2 bank occupancy per (non-atomic) access: banks are the
    # throughput bottleneck that makes L2-side atomics and miss storms
    # expensive relative to L1-resident traffic
    l2_bank_occupancy: int = 2
    # DRAM model: independent channels, each serving one line per
    # mem_occupancy cycles
    mem_channels: int = 8
    mem_occupancy: int = 6
    # Relaxed-atomic overlap window per warp under DRFrlx
    relaxed_atomic_window: int = 32
    # Host-side overhead between back-to-back kernel launches (GPU cycles)
    kernel_launch_cycles: int = 1500

    def __post_init__(self) -> None:
        # Every field is an int: ``num_sms=4.0`` (or ``True``) would
        # digest differently from ``num_sms=4`` while modeling the same
        # machine, and a str would fail later as a TypeError.  A zero
        # count crashes the engine and a negative latency models a
        # machine that cannot exist, so both fail here instead.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{f.name} must be an int, got {value!r}")
            if f.name in _NON_NEGATIVE:
                if value < 0:
                    raise ValueError(
                        f"{f.name} must be >= 0, got {value!r}")
            elif value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value!r}")
        for low in ("remote_l1_latency", "l2_latency", "mem_latency"):
            if getattr(self, f"{low}_min") > getattr(self, f"{low}_max"):
                raise ValueError(f"{low}_min must be <= {low}_max")
        if self.tb_size % self.warp_size != 0:
            raise ValueError("tb_size must be a multiple of warp_size")
        if self.line_bytes % self.element_bytes != 0:
            raise ValueError("line_bytes must be a multiple of element_bytes")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def warps_per_tb(self) -> int:
        """Warps per thread block."""
        return self.tb_size // self.warp_size

    @property
    def elements_per_line(self) -> int:
        """Property elements that share one cache line."""
        return self.line_bytes // self.element_bytes

    @property
    def l1_lines(self) -> int:
        """L1 capacity in lines (at least one full set)."""
        return max(self.l1_assoc, self.l1_bytes // self.line_bytes)

    @property
    def l2_lines(self) -> int:
        """L2 capacity in lines (at least one full set)."""
        return max(self.l2_assoc, self.l2_bytes // self.line_bytes)

    # ------------------------------------------------------------------
    # NUCA / mesh latency model.  Latencies depend on the distance between
    # the requesting core and the home bank; we hash the line to a bank and
    # map hop distance into the Table IV ranges deterministically.
    # ------------------------------------------------------------------
    def l2_bank(self, line: int) -> int:
        """Home L2 bank of a cache line."""
        return line % self.l2_banks

    def l2_latency(self, sm: int, line: int) -> int:
        """Round-trip L2 hit latency for ``sm`` accessing ``line``."""
        span = self.l2_latency_max - self.l2_latency_min
        hop = (self.l2_bank(line) + sm) % (span + 1) if span else 0
        return self.l2_latency_min + hop

    def mem_latency(self, sm: int, line: int) -> int:
        """Round-trip memory latency for ``sm`` accessing ``line``."""
        span = self.mem_latency_max - self.mem_latency_min
        hop = (self.l2_bank(line) + sm) % (span + 1) if span else 0
        return self.mem_latency_min + hop

    def remote_l1_latency(self, sm: int, owner_sm: int) -> int:
        """Round-trip latency to fetch a line owned by another core's L1."""
        span = self.remote_l1_latency_max - self.remote_l1_latency_min
        hop = abs(sm - owner_sm) % (span + 1) if span else 0
        return self.remote_l1_latency_min + hop


DEFAULT_SYSTEM = SystemConfig()


def scaled_system(scale: int, base: SystemConfig = DEFAULT_SYSTEM) -> SystemConfig:
    """Scale cache capacities down by ``scale`` to pair with scaled datasets.

    This is the one cache-scaling rule: the simulator runs a dataset built
    at ``scale`` on this machine, and the taxonomy profiles it against the
    same machine.  Latencies, core counts, and resource limits are left
    untouched: they model per-access behaviour, not capacity.  Caches are
    clamped to at least one full set so the geometry stays legal at
    extreme scales (above 64 on the Table IV machine).
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")

    def shrink(capacity: int, assoc: int) -> int:
        return max(assoc * base.line_bytes, capacity // scale)

    return replace(
        base,
        l1_bytes=shrink(base.l1_bytes, base.l1_assoc),
        l2_bytes=shrink(base.l2_bytes, base.l2_assoc),
    )
