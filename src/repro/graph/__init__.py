"""Graph substrate: CSR structure, builders, IO, generators, datasets."""

from .builders import (
    deduplicate,
    from_edge_list,
    normalize,
    relabel,
    remove_self_loops,
    subgraph,
    symmetrize,
)
from .csr import CSRGraph
from .datasets import (
    DATASET_KEYS,
    DEFAULT_SIM_SCALE,
    PAPER_DATASETS,
    DatasetRecipe,
    PaperStats,
    load_dataset,
    sim_dataset,
)
from .generators import (
    DegreeDistribution,
    GraphSpec,
    attach_random_weights,
    attach_unit_weights,
    generate_graph,
    grid_torus,
    shuffle_labels,
)
from .io import MatrixMarketError, load_mtx, save_mtx
from .stats import DegreeStats, degree_stats

__all__ = [
    "CSRGraph",
    "from_edge_list",
    "deduplicate",
    "remove_self_loops",
    "symmetrize",
    "normalize",
    "relabel",
    "subgraph",
    "DegreeDistribution",
    "GraphSpec",
    "generate_graph",
    "grid_torus",
    "shuffle_labels",
    "attach_unit_weights",
    "attach_random_weights",
    "load_mtx",
    "save_mtx",
    "MatrixMarketError",
    "DegreeStats",
    "degree_stats",
    "PaperStats",
    "DatasetRecipe",
    "PAPER_DATASETS",
    "DATASET_KEYS",
    "DEFAULT_SIM_SCALE",
    "load_dataset",
    "sim_dataset",
]
