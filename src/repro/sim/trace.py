"""Warp-granular instruction traces consumed by the timing engine.

A kernel launch is a :class:`KernelTrace`: a list of thread blocks, each a
list of warp op-sequences.  Ops are plain tuples headed by an integer
opcode (kept deliberately primitive — the engine executes millions of
them):

* ``(OP_COMPUTE, cycles)`` — ALU work.
* ``(OP_LOAD, lines)`` — a coalesced warp load touching the given cache
  lines; the warp blocks until all lines arrive.
* ``(OP_STORE, lines)`` — a non-blocking store (drains via the store
  buffer / ownership registration).
* ``(OP_ATOMIC, pairs, needs_value)`` — ``pairs`` is a tuple of
  ``(line, count)``: the warp's lanes perform ``count`` atomic RMWs on
  each line.  ``needs_value`` marks atomics whose return value feeds
  control flow (the warp must block for them under every model).
* ``(OP_ACQUIRE,)`` / ``(OP_RELEASE,)`` — kernel-boundary (paired)
  synchronization; triggers invalidation / flush per the coherence
  protocol.
* ``(OP_BARRIER,)`` — thread-block-wide barrier.

Compact IR.  The *shape* of an op is unchanged (the engine still sees
tuples), but a realized trace holds only references into a shared pool:
:class:`OpInterner` dedups whole op tuples, so the ~10⁶-op traces of a
large workload store each distinct op object once (graph kernels repeat
the same coalesced access patterns heavily across rounds, warps, and
iterations).  The ``compute()/load()/...``
constructors remain as the compatibility layer for hand-built traces;
bulk producers (``kernels/tracegen.py``) go through an interner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "OP_COMPUTE", "OP_LOAD", "OP_STORE", "OP_ATOMIC", "OP_ACQUIRE",
    "OP_RELEASE", "OP_BARRIER",
    "compute", "load", "store", "atomic", "acquire", "release", "barrier",
    "WarpTrace", "KernelTrace", "OpInterner", "op_count",
]

OP_COMPUTE = 0
OP_LOAD = 1
OP_STORE = 2
OP_ATOMIC = 3
OP_ACQUIRE = 4
OP_RELEASE = 5
OP_BARRIER = 6

WarpTrace = list  # list of op tuples


def compute(cycles: int) -> tuple:
    """An ALU op costing ``cycles``."""
    if cycles <= 0:
        raise ValueError("compute cycles must be positive")
    return (OP_COMPUTE, cycles)


def load(lines) -> tuple:
    """A blocking coalesced load of the given line ids."""
    lines = tuple(int(x) for x in lines)
    if not lines:
        raise ValueError("load must touch at least one line")
    return (OP_LOAD, lines)


def store(lines) -> tuple:
    """A non-blocking coalesced store to the given line ids."""
    lines = tuple(int(x) for x in lines)
    if not lines:
        raise ValueError("store must touch at least one line")
    return (OP_STORE, lines)


def atomic(pairs, needs_value: bool = False) -> tuple:
    """Atomic RMWs: ``pairs`` of (line, count)."""
    pairs = tuple((int(line), int(count)) for line, count in pairs)
    if not pairs:
        raise ValueError("atomic must touch at least one line")
    if any(count <= 0 for _, count in pairs):
        raise ValueError("atomic counts must be positive")
    return (OP_ATOMIC, pairs, bool(needs_value))


def acquire() -> tuple:
    """Kernel-boundary acquire (paired synchronization read)."""
    return (OP_ACQUIRE,)


def release() -> tuple:
    """Kernel-boundary release (paired synchronization write)."""
    return (OP_RELEASE,)


def barrier() -> tuple:
    """Thread-block-wide barrier."""
    return (OP_BARRIER,)


class OpInterner:
    """Shared pool that dedups op tuples (the trace IR).

    Interning is purely a storage/construction optimization: the pooled
    objects are ordinary tuples, bit-identical to what the compatibility
    constructors build, so the engine's arithmetic is unaffected.  A pool
    is typically scoped to one :class:`~repro.kernels.tracegen.TraceBuilder`
    so every iteration and direction of a workload shares it.
    """

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops: dict = {}

    def op(self, op_tuple: tuple) -> tuple:
        """Intern a complete op tuple (any opcode)."""
        got = self.ops.get(op_tuple)
        if got is None:
            self.ops[op_tuple] = op_tuple
            return op_tuple
        return got


@dataclass
class KernelTrace:
    """One kernel launch: ``blocks[tb][warp]`` is a warp's op list.

    Warp and op counts are maintained incrementally by :meth:`add_block`
    so ``num_warps``/``op_count`` are O(1) even on million-op traces.
    Mutate ``blocks`` only through :meth:`add_block`.
    """

    name: str
    blocks: list = field(default_factory=list)
    _num_warps: int = field(default=0, repr=False, compare=False)
    _op_count: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._num_warps = sum(len(tb) for tb in self.blocks)
        self._op_count = sum(len(w) for tb in self.blocks for w in tb)

    def add_block(self, warps: list) -> None:
        """Append a thread block given its per-warp op lists."""
        self.blocks.append(warps)
        self._num_warps += len(warps)
        self._op_count += sum(len(w) for w in warps)

    @property
    def num_blocks(self) -> int:
        """Thread blocks in this launch."""
        return len(self.blocks)

    @property
    def num_warps(self) -> int:
        """Total warps across all thread blocks (O(1))."""
        return self._num_warps

    @property
    def op_count(self) -> int:
        """Total op tuples across all warps (O(1))."""
        return self._op_count


def op_count(trace: KernelTrace) -> int:
    """Total op tuples in a kernel trace (cost estimation/testing)."""
    return trace._op_count

