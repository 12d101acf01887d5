"""Address-space layout for the traced kernels.

Each logical data structure (CSR offsets, edge lists, double-buffered
vertex properties, per-app auxiliaries) lives in its own region of a flat
address space so cache behaviour distinguishes them.  Regions are spaced
far apart; lines are identified by integer ids (byte address divided by
the line size).
"""

from __future__ import annotations

__all__ = ["AddressMap"]

_REGION_SPACING_LINES = 1 << 24


class AddressMap:
    """Maps (region, element index) pairs to cache-line ids.

    Regions are created on first use; element ``i`` of a region lives on
    line ``region_base(region) + i // elements_per_line`` (densely packed
    ``element_bytes``-sized elements).
    """

    def __init__(self, line_bytes: int = 64, element_bytes: int = 4) -> None:
        if line_bytes % element_bytes != 0:
            raise ValueError("line_bytes must be a multiple of element_bytes")
        self.line_bytes = line_bytes
        self.element_bytes = element_bytes
        self.elements_per_line = line_bytes // element_bytes
        self._regions: dict[str, int] = {}

    def region_base(self, region: str) -> int:
        """Base line id of a named region (created on first use)."""
        if region not in self._regions:
            self._regions[region] = len(self._regions) * _REGION_SPACING_LINES
        return self._regions[region]
