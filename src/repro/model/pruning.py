"""Prediction-guided sweep pruning: simulate the top-k ranked configs.

A full sweep simulates every Figure-5 configuration per workload, but the
paper's central claim is that six cheap taxonomy features already predict
the winner — so most of those simulations confirm what the model knew.
:class:`PruningPolicy` has one ranking rule: the decision tree's pick
first, then the rest of the workload's Figure-5 space in ascending
analytic-model cost.  It keeps the top ``k`` plus a seeded exploration
budget, and always the Figure-5 normalization baseline (TG0, DG1 for
dynamic apps), so pruned rows stay normalizable
(:meth:`SweepRow.normalized`).

``repro.harness.sweep.run_sweep(prune_k=, explore=)`` and the CLI's
``sweep --prune-k/--explore`` drive the policy end to end;
``benchmarks/bench_pruning.py`` measures achieved-vs-oracle performance
and simulation time saved at each ``(k, explore)`` (committed as
``BENCH_pruning.json``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from ..configs import figure5_configurations
from ..sim.config import DEFAULT_SYSTEM, SystemConfig
from ..taxonomy.profile import WorkloadProfile
from .analytic import estimate_design_space
from .decision_tree import predict_configuration

__all__ = ["PruningPolicy"]


def sweep_baseline(traversal: str) -> str:
    """The Figure-5 normalization bar for a traversal type (TG0 / DG1)."""
    return figure5_configurations(traversal)[0].code


@dataclass(frozen=True)
class PruningPolicy:
    """Per-workload configuration selection: top-``k`` + exploration.

    ``k`` configurations are kept from the ranking (:meth:`rank`);
    ``explore`` more are drawn seeded-uniformly from the remainder.  The
    exploration picks measure what the ranking misses: a sweep that
    simulates them finds the workloads whose true winner ranked below
    ``k``.  The Figure-5 baseline is always included — pruned rows must
    stay normalizable — so a subset holds between ``k`` (+1 if the
    baseline was not ranked in) and ``k + explore + 1`` configurations,
    in Figure-5 presentation order.
    """

    k: int = 1
    explore: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("prune_k must be >= 1")
        if self.explore < 0:
            raise ValueError("explore must be >= 0")

    def rank(self, profile: WorkloadProfile,
             system: SystemConfig = DEFAULT_SYSTEM) -> list[str]:
        """The workload's Figure-5 configs, most promising first.

        The decision tree's pick leads, then the rest in ascending
        analytic-model cost (code breaks ties) — the tree answers
        *which*, the analytic model orders the remainder by *how much*.
        """
        space = figure5_configurations(profile.app.traversal.value)
        estimates = estimate_design_space(profile, space, system)
        tree = predict_configuration(profile).code
        return sorted((config.code for config in space),
                      key=lambda code: (code != tree,
                                        estimates[code].total, code))

    def _explore_rng(self, profile: WorkloadProfile) -> random.Random:
        """Deterministic per-workload RNG (independent of hash seeds)."""
        key = f"{self.seed}:{profile.graph.name}:{profile.app.app}"
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return random.Random(int(digest[:16], 16))

    def subset(self, profile: WorkloadProfile,
               system: SystemConfig = DEFAULT_SYSTEM) -> tuple[str, ...]:
        """The configuration codes this workload should simulate."""
        ranked = self.rank(profile, system)
        keep = ranked[: self.k]
        rest = ranked[self.k:]
        if self.explore and rest:
            rng = self._explore_rng(profile)
            keep = keep + rng.sample(rest, min(self.explore, len(rest)))
        baseline = sweep_baseline(profile.app.traversal.value)
        if baseline not in keep:
            keep = keep + [baseline]
        # Figure-5 presentation order keeps the baseline leftmost and the
        # spec's config tuple — hence its digest — independent of ranking
        # internals that do not change the selected set.
        order = {code: i for i, code in enumerate(
            c.code for c in figure5_configurations(
                profile.app.traversal.value))}
        return tuple(sorted(keep, key=order.__getitem__))
