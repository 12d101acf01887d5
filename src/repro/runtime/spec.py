"""Workload specifications: one simulation unit described purely as data.

The execution layer separates *what* to simulate from *how* it is
scheduled (serially, across worker nodes, or straight from the result
cache).  A :class:`WorkloadSpec` therefore captures everything
:func:`repro.harness.runner.run_workload` consumes — application, graph
identity (not the graph object), configuration codes, baseline, system
parameters, iteration cap, seed — as a frozen, hashable value with a
stable content digest.  An :class:`ExecutionPlan` is an ordered tuple of
such units, e.g. the paper's full 36-workload sweep.

Digests include :data:`RESULT_SCHEMA_VERSION`, so any change to the
serialized result layout automatically invalidates cached entries.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from ..configs import Configuration, figure5_configurations, parse_config
from ..graph.csr import CSRGraph
from ..graph.datasets import DEFAULT_SIM_SCALE, PAPER_DATASETS, load_dataset
from ..kernels.registry import KERNELS
from ..sim.config import DEFAULT_SYSTEM, SystemConfig, scaled_system

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "GraphRef",
    "WorkloadSpec",
    "ExecutionPlan",
]

# Bump whenever the serialized shape of WorkloadResult / ExecutionResult /
# MemoryStats changes: digests embed it, so old cache entries miss cleanly.
RESULT_SCHEMA_VERSION = 1


def _check_int(name: str, value, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an int >= ``minimum``.

    A bool is never an int here: ``seed=True`` would digest differently
    from ``seed=1`` while simulating the same unit.
    """
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, "
                         f"got {value!r}")


def _check_code(name: str, code) -> None:
    """Raise ValueError unless ``code`` is a canonical configuration code.

    ``"tg0"`` parses like ``"TG0"`` but would digest differently while
    simulating the same configuration.
    """
    if not isinstance(code, str):
        raise ValueError(f"{name} must be a str, got {code!r}")
    canonical = parse_config(code).code
    if code != canonical:
        raise ValueError(f"{name} {code!r} is not canonical; "
                         f"write {canonical!r}")


@dataclass(frozen=True)
class GraphRef:
    """A graph identified by recipe, not by object.

    Workers rebuild the graph from this reference (datasets are generated
    deterministically from ``(key, scale, seed)``; Matrix Market files are
    re-read from disk), so graphs never cross process boundaries.
    ``fingerprint`` pins file-based graphs to their content so the cache
    cannot return results for an edited file.
    """

    kind: str  # 'dataset' | 'mtx'
    source: str  # dataset key, or path to a .mtx file
    scale: int = 1
    seed: int = 0
    fingerprint: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("dataset", "mtx"):
            raise ValueError(f"unknown graph kind {self.kind!r}")
        if not isinstance(self.source, str):
            raise ValueError(f"graph source must be a str, "
                             f"got {self.source!r}")
        if self.kind == "dataset" and self.source not in PAPER_DATASETS:
            raise ValueError(f"unknown dataset {self.source!r}")
        _check_int("scale", self.scale, 1)
        _check_int("graph seed", self.seed, 0)
        if self.fingerprint is not None \
                and not isinstance(self.fingerprint, str):
            raise ValueError(f"fingerprint must be a str or None, "
                             f"got {self.fingerprint!r}")

    @classmethod
    def dataset(cls, key: str, scale: int | None = None,
                seed: int = 0) -> "GraphRef":
        """Reference a named dataset (default: its simulation scale)."""
        key = key.upper()
        if scale is None:
            scale = DEFAULT_SIM_SCALE.get(key, 1)
        return cls(kind="dataset", source=key, scale=scale, seed=seed)

    @classmethod
    def mtx(cls, path: str | Path) -> "GraphRef":
        """Reference a Matrix Market file, fingerprinted by content."""
        path = Path(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        return cls(kind="mtx", source=str(path), fingerprint=digest)

    @property
    def label(self) -> str:
        """Short display name (dataset key or file stem)."""
        if self.kind == "dataset":
            return self.source
        return Path(self.source).stem

    def load(self) -> CSRGraph:
        """Materialize the graph this reference describes."""
        if self.kind == "dataset":
            return load_dataset(self.source, scale=self.scale,
                                seed=self.seed)
        from ..graph.builders import normalize
        from ..graph.generators import attach_random_weights
        from ..graph.io import load_mtx

        return attach_random_weights(normalize(load_mtx(self.source)),
                                     seed=self.seed)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GraphRef":
        return cls(**data)


@dataclass(frozen=True)
class WorkloadSpec:
    """One simulation unit: everything ``run_workload`` needs, as data.

    ``configs`` are the three-letter configuration codes in presentation
    order; ``baseline`` names the normalization bar explicitly (TG0 for
    static apps, DG1 for CC under Figure 5 ordering) instead of leaning
    on dict insertion order.
    """

    app: str
    graph: GraphRef
    configs: tuple[str, ...]
    baseline: str
    system: SystemConfig = DEFAULT_SYSTEM
    max_iters: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.app, str) or self.app not in KERNELS:
            raise ValueError(f"unknown application {self.app!r}")
        if not self.configs:
            raise ValueError("spec needs at least one configuration")
        for code in self.configs:
            _check_code("configuration code", code)
        _check_code("baseline", self.baseline)
        if self.baseline not in self.configs:
            raise ValueError(
                f"baseline {self.baseline!r} not among configs "
                f"{self.configs}"
            )
        if self.max_iters is not None:
            _check_int("max_iters", self.max_iters, 1)
        _check_int("seed", self.seed, 0)

    @classmethod
    def for_workload(
        cls,
        app: str,
        graph: GraphRef,
        configs: Iterable[Configuration | str] | None = None,
        baseline: str | None = None,
        system: SystemConfig | None = None,
        max_iters: int | None = None,
        seed: int = 0,
    ) -> "WorkloadSpec":
        """Build a spec with the Figure 5 defaults filled in.

        ``configs`` defaults to the Figure 5 set for the app's traversal
        type; ``baseline`` defaults to the first configuration;
        ``system`` defaults to the Table IV machine scaled to the graph's
        scale divisor.
        """
        app = app.upper()
        if app not in KERNELS:
            raise ValueError(f"unknown application {app!r}")
        if configs is None:
            configs = figure5_configurations(KERNELS[app].traversal)
        codes = tuple(
            c.code if isinstance(c, Configuration) else parse_config(c).code
            for c in configs
        )
        if system is None:
            system = scaled_system(graph.scale)
        return cls(
            app=app,
            graph=graph,
            configs=codes,
            baseline=baseline or codes[0],
            system=system,
            max_iters=max_iters,
            seed=seed,
        )

    @property
    def label(self) -> str:
        """Progress label, e.g. ``'RAJ/PR'``."""
        return f"{self.graph.label}/{self.app}"

    def configurations(self) -> list[Configuration]:
        """The parsed configuration objects, in spec order."""
        return [parse_config(code) for code in self.configs]

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "graph": self.graph.to_dict(),
            "configs": list(self.configs),
            "baseline": self.baseline,
            "system": asdict(self.system),
            "max_iters": self.max_iters,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        return cls(
            app=data["app"],
            graph=GraphRef.from_dict(data["graph"]),
            configs=tuple(data["configs"]),
            baseline=data["baseline"],
            system=SystemConfig(**data["system"]),
            max_iters=data["max_iters"],
            seed=data["seed"],
        )

    def canonical(self) -> str:
        """This spec's JSON text (sorted keys, no spaces), kept like
        :meth:`digest`, which hashes it."""
        text = self.__dict__.get("_canonical")
        if text is None:
            text = json.dumps(self.to_dict(), sort_keys=True,
                              separators=(",", ":"))
            object.__setattr__(self, "_canonical", text)
        return text

    def digest(self) -> str:
        """Stable content address of this unit (schema-versioned).

        Computed once per spec object and kept in its ``__dict__`` (not a
        field, so equality, hashing and ``to_dict`` ignore it): the spec
        is frozen, and ``dataclasses.replace`` builds a new object.
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            payload = '{"schema":%d,"spec":%s}' % (RESULT_SCHEMA_VERSION,
                                                   self.canonical())
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_digest", digest)
        return digest


@dataclass(frozen=True)
class ExecutionPlan:
    """An ordered collection of workload specs executed as one batch."""

    units: tuple[WorkloadSpec, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self) -> Iterator[WorkloadSpec]:
        return iter(self.units)

    def __getitem__(self, index: int) -> WorkloadSpec:
        return self.units[index]

    @classmethod
    def for_sweep(
        cls,
        graphs: Iterable[str],
        apps: Iterable[str],
        max_iters: int | None = None,
        seed: int = 0,
        scales: dict[str, int] | None = None,
        base_system: SystemConfig = DEFAULT_SYSTEM,
    ) -> "ExecutionPlan":
        """The evaluation sweep as a plan: graphs outer, apps inner.

        Mirrors the ordering of :func:`repro.harness.sweep.run_sweep` so
        plan position maps one-to-one onto sweep rows.  Every unit runs
        its app's full Figure-5 grid on ``scaled_system(scale,
        base_system)``.
        """
        scales = scales or DEFAULT_SIM_SCALE
        units = []
        for graph_key in graphs:
            scale = scales[graph_key]
            ref = GraphRef.dataset(graph_key, scale=scale, seed=seed)
            system = scaled_system(scale, base_system)
            for app in apps:
                units.append(WorkloadSpec.for_workload(
                    app, ref,
                    system=system,
                    max_iters=max_iters,
                    seed=seed,
                ))
        return cls(units=tuple(units))

    def digest(self) -> str:
        """Digest over the ordered unit digests."""
        joined = "\n".join(unit.digest() for unit in self.units)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()
