"""The six paper input graphs, rebuilt synthetically.

The paper evaluates six SuiteSparse graphs (Table II).  Those files are not
available offline, so each dataset here is a synthetic stand-in generated to
land in the **same taxonomy cell** (volume/reuse/imbalance class) with
similar degree statistics — which is all the specialization model and the
qualitative results consume (see DESIGN.md, "Substitutions").

Each recipe supports a ``scale`` divisor: ``scale=1`` reproduces the paper's
graph sizes (used for the vectorized taxonomy experiments); larger scales
shrink vertices and edges proportionally for the timing simulator, paired
with proportionally scaled caches (``repro.sim.config.scaled_system``) so
every volume classification is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .csr import CSRGraph
from .generators import (
    DegreeDistribution,
    GraphSpec,
    attach_random_weights,
    generate_graph,
    grid_torus,
    shuffle_labels,
)

__all__ = [
    "PaperStats",
    "DatasetRecipe",
    "PAPER_DATASETS",
    "DATASET_KEYS",
    "load_dataset",
    "sim_dataset",
    "DEFAULT_SIM_SCALE",
]


@dataclass(frozen=True)
class PaperStats:
    """Table II's published row for a dataset (reference values)."""

    vertices: int
    edges: int
    max_degree: int
    avg_degree: float
    std_degree: float
    volume_kb: float
    anl: float
    anr: float
    reuse: float
    imbalance: float
    volume_class: str
    reuse_class: str
    imbalance_class: str


@dataclass(frozen=True)
class DatasetRecipe:
    """A named synthetic stand-in for one of the paper's inputs."""

    key: str
    description: str
    paper: PaperStats
    builder: Callable[[int, int], CSRGraph]

    def build(self, scale: int = 1, seed: int = 0) -> CSRGraph:
        """Generate the dataset at ``1/scale`` of the paper's size."""
        if scale < 1:
            raise ValueError("scale must be >= 1")
        graph = self.builder(scale, seed)
        graph.name = self.key if scale == 1 else f"{self.key}/{scale}"
        return graph


def _amz(scale: int, seed: int) -> CSRGraph:
    # amazon0601-like: large, moderate-degree lognormal tail, degree-sorted
    # vertex order (crawl order is locally homogeneous), modest locality.
    n = max(2048, 410236 // scale)
    spec = GraphSpec(
        num_vertices=n,
        degrees=DegreeDistribution(
            "lognormal", a=1.72, b=0.70, max_draws=max(18, 1385 // scale)
        ),
        locality=0.17,
        arrangement="sorted",
        seed=seed + 11,
        name="AMZ",
    )
    return attach_random_weights(generate_graph(spec), seed=seed)


def _dct(scale: int, seed: int) -> CSRGraph:
    # dictionary28-like: small word graph, light geometric tail, mild
    # locality, mild imbalance.
    n = max(1024, 52652 // scale)
    spec = GraphSpec(
        num_vertices=n,
        degrees=DegreeDistribution("lognormal", a=0.12, b=0.90, max_draws=19),
        locality=0.345,
        arrangement="shuffled",
        seed=seed + 23,
        name="DCT",
    )
    return attach_random_weights(generate_graph(spec), seed=seed)


def _eml(scale: int, seed: int) -> CSRGraph:
    # email-EuAll-like: power-law degree distribution, hubs sprinkled over
    # the id space (every thread block imbalanced), essentially no locality.
    n = max(2048, 265214 // scale)
    spec = GraphSpec(
        num_vertices=n,
        degrees=DegreeDistribution(
            "zipf", a=2.2, min_draws=1, max_draws=max(64, 4 * 3800 // scale)
        ),
        locality=0.045,
        arrangement="shuffled",
        seed=seed + 37,
        name="EML",
    )
    return attach_random_weights(generate_graph(spec), seed=seed)


def _ols(scale: int, seed: int) -> CSRGraph:
    # olesnik0-like FEM mesh: near-regular 8-point stencil in natural
    # (row-major) order -> high locality, zero imbalance.
    side = max(1, int(round(scale ** 0.5)))
    width = max(24, 200 // side)
    height = max(24, 441 // max(1, scale // side))
    graph = grid_torus(width, height, stencil=8, name="OLS")
    return attach_random_weights(graph, seed=seed)


def _raj(scale: int, seed: int) -> CSRGraph:
    # rajat-like circuit graph: strong local structure plus a heavy tail of
    # global hub nets -> high reuse AND high imbalance.
    n = max(1024, 20640 // scale)
    spec = GraphSpec(
        num_vertices=n,
        degrees=DegreeDistribution(
            "lognormal", a=0.62, b=1.05, max_draws=max(96, 1700 // scale)
        ),
        locality=0.62,
        # A handful of power-net hubs carry rajat's extreme degree tail
        # (paper max degree 3469 ~ 17% of |V|).
        hubs=(max(2, 10 // scale), 0.16),
        arrangement="shuffled",
        seed=seed + 53,
        name="RAJ",
    )
    return attach_random_weights(generate_graph(spec), seed=seed)


def _wng(scale: int, seed: int) -> CSRGraph:
    # wing-like mesh: exactly 4-regular, but with vertex ids shuffled so the
    # mesh locality is invisible to thread blocks (ANL ~ 0.02 in the paper).
    side = max(1, int(round(scale ** 0.5)))
    width = max(16, 248 // side)
    height = max(16, 246 // max(1, scale // side))
    graph = grid_torus(width, height, stencil=4, name="WNG")
    graph = shuffle_labels(graph, seed=seed + 71)
    graph.name = "WNG"
    return attach_random_weights(graph, seed=seed)


PAPER_DATASETS: dict[str, DatasetRecipe] = {
    "AMZ": DatasetRecipe(
        "AMZ",
        "amazon0601-like product co-purchase graph",
        PaperStats(410236, 6713648, 2770, 16.265, 16.298, 1855.178,
                   2.616, 13.749, 0.160, 0.000, "H", "M", "L"),
        _amz,
    ),
    "DCT": DatasetRecipe(
        "DCT",
        "dictionary28-like word-association graph",
        PaperStats(52652, 178076, 38, 3.382, 4.475, 60.078,
                   1.215, 2.167, 0.359, 0.083, "M", "M", "M"),
        _dct,
    ),
    "EML": DatasetRecipe(
        "EML",
        "email-EuAll-like power-law communication graph",
        PaperStats(265214, 837912, 7636, 3.159, 42.490, 287.272,
                   0.167, 2.992, 0.053, 1.000, "H", "L", "H"),
        _eml,
    ),
    "OLS": DatasetRecipe(
        "OLS",
        "olesnik0-like finite-element mesh",
        PaperStats(88263, 683186, 10, 7.740, 2.411, 200.898,
                   3.446, 4.295, 0.445, 0.000, "M", "H", "L"),
        _ols,
    ),
    "RAJ": DatasetRecipe(
        "RAJ",
        "rajat-like circuit-simulation graph",
        PaperStats(20640, 163178, 3469, 7.906, 32.954, 47.869,
                   4.697, 3.209, 0.594, 0.617, "L", "H", "H"),
        _raj,
    ),
    "WNG": DatasetRecipe(
        "WNG",
        "wing-like 4-regular mesh with shuffled vertex ids",
        PaperStats(61032, 243088, 4, 3.919, 0.278, 79.458,
                   0.020, 3.899, 0.594, 0.000, "M", "L", "L"),
        _wng,
    ),
}

DATASET_KEYS: tuple[str, ...] = tuple(PAPER_DATASETS)

# Default scales for timing-simulator runs: chosen so each instance keeps
# its paper taxonomy classes under proportionally scaled caches AND spans
# at least ~40 thread blocks, so the 15 SMs run multiple resident blocks
# and hide latency like the full-size system does.
DEFAULT_SIM_SCALE: dict[str, int] = {
    "AMZ": 32,
    "DCT": 4,
    "EML": 16,
    "OLS": 9,
    "RAJ": 2,
    "WNG": 4,
}


def load_dataset(key: str, scale: int = 1, seed: int = 0) -> CSRGraph:
    """Build the named dataset at the given scale divisor."""
    try:
        recipe = PAPER_DATASETS[key]
    except KeyError:
        raise KeyError(
            f"unknown dataset {key!r}; choose from {sorted(PAPER_DATASETS)}"
        ) from None
    return recipe.build(scale=scale, seed=seed)


def sim_dataset(key: str, seed: int = 0) -> CSRGraph:
    """Build the named dataset at its default timing-simulation scale."""
    return load_dataset(key, scale=DEFAULT_SIM_SCALE[key], seed=seed)
