"""Memory-system base: shared structure for both coherence protocols.

The memory system owns the per-SM L1s, the shared banked L2, the MSHR and
store-buffer resource models, the per-line atomic sequencers, and the
DeNovo ownership directory.  Protocol subclasses implement the latency
policy for loads, stores, atomics, and acquires.

Resource modeling: MSHRs and store-buffer entries are FIFO-recycled rings
of free-at times — reserving a slot that is still busy pushes the request
out to the slot's free time.  Per-line sequencers serialize atomic
operations to the same address, wherever they execute (L2 bank for GPU
coherence, owning L1 for DeNovo).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields

from ..cache import SetAssocCache
from ..config import SystemConfig

__all__ = ["MemoryStats", "MemorySystem"]


@dataclass
class MemoryStats:
    """Event counters exposed for tests and analyses."""

    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    stores: int = 0
    atomics: int = 0
    atomics_local: int = 0
    atomics_remote_transfer: int = 0
    ownership_registrations: int = 0
    acquires: int = 0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe mapping of every counter (``extra`` copied)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "extra"}
        data["extra"] = dict(self.extra)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "MemoryStats":
        """Inverse of :meth:`to_dict`; malformed input raises ``ValueError``.

        Unknown keys, a non-mapping payload, a counter that is not an
        ``int`` (``bool`` included), and an ``extra`` that is not a dict
        of ``int`` counters are all rejected, naming the field.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"MemoryStats payload must be a mapping, "
                f"not {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown MemoryStats fields: {sorted(map(str, unknown))}")
        payload = dict(data)
        extra = payload.pop("extra", {})
        if not isinstance(extra, dict):
            raise ValueError(
                f"MemoryStats field 'extra' must be a dict, "
                f"not {type(extra).__name__}")
        counters = [(repr(name), value) for name, value in payload.items()]
        counters += [(f"extra[{key!r}]", value) for key, value in extra.items()]
        for name, value in counters:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"MemoryStats field {name} must be an int, "
                    f"not {value!r}")
        return cls(**payload, extra=dict(extra))


class _Ring:
    """FIFO-recycled pool of ``n`` resource slots holding free-at times."""

    __slots__ = ("free_at", "idx", "n")

    def __init__(self, n: int) -> None:
        self.free_at = [0.0] * n
        self.idx = 0
        self.n = n


class MemorySystem:
    """Shared skeleton of the two coherence protocols."""

    name = "base"

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.stats = MemoryStats()
        self.l1s = [
            SetAssocCache(config.l1_lines, config.l1_assoc)
            for _ in range(config.num_sms)
        ]
        self.l2 = SetAssocCache(config.l2_lines, config.l2_assoc)
        self.owner: dict[int, int] = {}
        self.sequencer: dict[int, float] = {}
        self._mshrs = [_Ring(config.l1_mshrs) for _ in range(config.num_sms)]
        self._store_buffers = [
            _Ring(config.store_buffer_entries) for _ in range(config.num_sms)
        ]
        self._l2_bank_free = [0.0] * config.l2_banks
        self._mem_channel_free = [0.0] * config.mem_channels
        # Per-SM L1 atomic unit (DeNovo executes atomics at the owner L1,
        # which is a throughput-limited resource just like an L2 bank).
        self._l1_atomic_free = [0.0] * config.num_sms
        # Latency-model constants, predigested so the per-line service
        # loops do integer arithmetic instead of SystemConfig method
        # calls.  `% span1` with span1 == 1 yields 0, so the zero-span
        # special case in SystemConfig collapses into the same formula.
        self._l2_banks = config.l2_banks
        self._mem_channels = config.mem_channels
        self._l2_lat_min = config.l2_latency_min
        self._l2_span1 = config.l2_latency_max - config.l2_latency_min + 1
        self._mem_lat_min = config.mem_latency_min
        self._mem_span1 = config.mem_latency_max - config.mem_latency_min + 1
        self._rl1_min = config.remote_l1_latency_min
        self._rl1_span1 = (config.remote_l1_latency_max
                           - config.remote_l1_latency_min + 1)
        self._mem_occupancy = config.mem_occupancy

    # ------------------------------------------------------------------
    # Protocol interface (subclasses implement)
    # ------------------------------------------------------------------
    def load(self, sm: int, lines: tuple, now: float) -> float:
        """Blocking coalesced load; returns data-arrival time."""
        raise NotImplementedError

    def store(self, sm: int, lines: tuple, now: float) -> tuple[float, float]:
        """Non-blocking store; returns (warp-accept time, global-drain time)."""
        raise NotImplementedError

    def atomics(
        self, sm: int, pairs: tuple, floor: float, issue: float,
        outstanding: list | None = None, window: int = 0,
    ) -> tuple[float, float, int]:
        """Service one warp atomic instruction's ``(line, count)`` pairs.

        The pairs belong to different lanes, so they are concurrent: each
        executes no earlier than the program-order floor, while shared
        resources (banks, DRAM channels, atomic units) are booked at
        ``issue`` so that a warp ordered far into the future does not
        reserve hardware ahead of requests that arrive earlier in global
        time.

        With ``window == 0`` (DRF0/DRF1) every pair has floor ``floor``.
        With a DRFrlx MLP ``window``, ``outstanding`` is the warp's
        ascending list of in-flight atomic completions, mutated in place:
        a pair whose window is full raises the floor to the oldest
        in-flight completion, which then retires.

        Returns ``(t, done, lanes)``: the floor after the final pair, the
        latest completion (at least ``floor``), and the total lane count.
        """
        raise NotImplementedError

    def acquire(self, sm: int) -> int:
        """Apply acquire-side invalidation; return its pipeline cost."""
        raise NotImplementedError
