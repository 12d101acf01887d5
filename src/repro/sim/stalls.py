"""Execution-time stall classification (Section V-C, after Alsop et al. GSI).

* **Busy** — cycles where at least one instruction issued.
* **Comp** — waiting for a computation unit or result.
* **Data** — waiting for non-atomic memory (loads, store-buffer pressure).
* **Sync** — waiting for atomics, flushes/invalidations, or barriers.
* **Idle** — a core waiting for other cores to finish the kernel.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, fields

__all__ = ["StallBreakdown", "CATEGORIES", "read_fields", "read_cycles"]

CATEGORIES = ("busy", "comp", "data", "sync", "idle")


def read_fields(owner: str, data, known: Mapping[str, type | tuple | None],
                required: Iterable[str] = ()) -> dict:
    """``data`` as a dict of ``owner``'s fields; ``ValueError`` naming
    the field unless it is a mapping of ``known`` fields (each of its
    type; None: any) with every ``required`` one present."""
    if not isinstance(data, Mapping):
        raise ValueError(
            f"{owner} payload must be a mapping, not {type(data).__name__}")
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(
            f"unknown {owner} fields: {sorted(map(str, unknown))}")
    for name in required:
        if name not in data:
            raise ValueError(f"{owner} field {name!r} is missing")
    for name, value in data.items():
        if known[name] is not None and not isinstance(value, known[name]):
            raise ValueError(f"{owner} field {name!r} has the wrong type: "
                             f"{value!r}")
    return dict(data)


def read_cycles(owner: str, name: str, value) -> float:
    """``value`` as a float; ``ValueError`` naming ``owner``'s field
    ``name`` unless it is a finite number (a ``bool`` is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValueError(
            f"{owner} field {name!r} must be a finite number, not {value!r}")
    return float(value)


@dataclass
class StallBreakdown:
    """Aggregated SM-cycle counts per category."""

    busy: float = 0.0
    comp: float = 0.0
    data: float = 0.0
    sync: float = 0.0
    idle: float = 0.0

    def __add__(self, other: "StallBreakdown") -> "StallBreakdown":
        return StallBreakdown(
            *(getattr(self, f.name) + getattr(other, f.name)
              for f in fields(self))
        )

    def __iadd__(self, other: "StallBreakdown") -> "StallBreakdown":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @property
    def total(self) -> float:
        """Total SM-cycles across all categories."""
        return self.busy + self.comp + self.data + self.sync + self.idle

    def fractions(self) -> dict[str, float]:
        """Category fractions (all zeros for an empty breakdown)."""
        total = self.total
        if total == 0:
            return {name: 0.0 for name in CATEGORIES}
        return {name: getattr(self, name) / total for name in CATEGORIES}

    def add(self, category: str, amount: float) -> None:
        """Accumulate ``amount`` cycles into ``category``.

        ``category`` must be one of :data:`CATEGORIES`.  A bare
        ``setattr`` would happily create a new attribute for a typo'd
        name — cycles that ``total``, ``fractions`` and ``to_dict``
        (which iterate only the known categories) silently never see.
        """
        if category not in CATEGORIES:
            raise ValueError(
                f"unknown stall category {category!r}; "
                f"choose from {CATEGORIES}")
        setattr(self, category, getattr(self, category) + amount)

    def to_dict(self) -> dict:
        """JSON-safe mapping of category -> cycles."""
        return {name: getattr(self, name) for name in CATEGORIES}

    @classmethod
    def from_dict(cls, data: Mapping) -> "StallBreakdown":
        """Inverse of :meth:`to_dict` (a missing category reads as 0);
        malformed input raises ``ValueError`` naming the field."""
        data = read_fields("StallBreakdown", data, dict.fromkeys(CATEGORIES))
        return cls(**{name: read_cycles("StallBreakdown", name,
                                        data.get(name, 0.0))
                      for name in CATEGORIES})
