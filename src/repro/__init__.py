"""repro: reproduction of "Specializing Coherence, Consistency, and
Push/Pull for GPU Graph Analytics" (Salvador et al., ISPASS 2020).

Quick tour
----------
>>> from repro import sim_dataset, run_workload, workload_profile
>>> from repro import predict_configuration, scaled_system
>>> graph = sim_dataset("RAJ")
>>> profile = workload_profile(graph, "PR", scaled_system(2))
>>> predict_configuration(profile).code
'SDR'

Subpackages: :mod:`repro.graph` (CSR substrate, generators, datasets),
:mod:`repro.taxonomy` (volume/reuse/imbalance, Table III properties),
:mod:`repro.sim` (the timing simulator: caches, coherence, consistency,
engine), :mod:`repro.kernels` (the six applications and trace
generation), :mod:`repro.model` (the Figure 4 decision tree),
:mod:`repro.harness` (runners, sweeps, and report rendering), and
:mod:`repro.runtime` (workload specs, serial and worker-node executors,
and the content-addressed result cache).
"""

from . import adaptive, graph, harness, kernels, model, runtime, sim, taxonomy
from .configs import (
    Configuration,
    all_configurations,
    figure5_configurations,
    parse_config,
)
from .graph import (
    CSRGraph,
    load_dataset,
    load_mtx,
    save_mtx,
    sim_dataset,
)
from .harness import run_sweep, run_workload
from .model import (
    explain_prediction,
    predict_configuration,
    predict_partial_configuration,
    workload_profile,
)
from .runtime import (
    ExecutionPlan,
    GraphRef,
    ResultCache,
    WorkloadSpec,
    run_plan,
)
from .sim import DEFAULT_SYSTEM, GPUSimulator, SystemConfig, scaled_system
from .taxonomy import profile_graph, profile_workload

__version__ = "1.0.0"

__all__ = [
    "adaptive",
    "graph",
    "taxonomy",
    "sim",
    "kernels",
    "model",
    "harness",
    "CSRGraph",
    "load_mtx",
    "save_mtx",
    "load_dataset",
    "sim_dataset",
    "Configuration",
    "parse_config",
    "all_configurations",
    "figure5_configurations",
    "SystemConfig",
    "DEFAULT_SYSTEM",
    "scaled_system",
    "GPUSimulator",
    "profile_graph",
    "profile_workload",
    "workload_profile",
    "predict_configuration",
    "predict_partial_configuration",
    "explain_prediction",
    "run_workload",
    "run_sweep",
    "runtime",
    "GraphRef",
    "WorkloadSpec",
    "ExecutionPlan",
    "ResultCache",
    "run_plan",
    "__version__",
]
