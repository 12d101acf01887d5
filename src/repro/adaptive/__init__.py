"""Runtime adaptation on flexible memory systems (the paper's future work).

Three layers:

* :class:`FlexibleSimulator` — Spandex-like hardware that reconfigures
  coherence/consistency between kernel launches (with switching costs):
  one :class:`~repro.sim.engine.GPUSimulator` and its one clock, with a
  memory system per protocol swapped in by ``GPUSimulator.switch``.
* :class:`OnlineSelector` / :func:`run_adaptive` — explore-then-commit
  selection of the coherence+consistency pair at runtime.
* :class:`DirectionPolicy` / :func:`run_direction_adaptive` — per-
  iteration push/pull switching driven by frontier density.
"""

from .direction import (
    DirectionAdaptiveResult,
    DirectionPolicy,
    run_direction_adaptive,
)
from .flexible import FlexibleSimulator, ReconfigurationEvent
from .online import AdaptiveResult, OnlineSelector, run_adaptive

__all__ = [
    "FlexibleSimulator",
    "ReconfigurationEvent",
    "OnlineSelector",
    "AdaptiveResult",
    "run_adaptive",
    "DirectionPolicy",
    "DirectionAdaptiveResult",
    "run_direction_adaptive",
]
