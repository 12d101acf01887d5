"""Workload-driven specialization model (Section IV)."""

from .analytic import (
    AnalyticEstimate,
    analytic_best,
    estimate_cost,
    estimate_design_space,
)
from .decision_tree import explain_prediction, predict_configuration
from .features import ModelFeatures, extract_features, workload_profile
from .partial import predict_partial_configuration
from .pruning import PruningPolicy

__all__ = [
    "predict_configuration",
    "predict_partial_configuration",
    "explain_prediction",
    "ModelFeatures",
    "extract_features",
    "workload_profile",
    "PruningPolicy",
    "AnalyticEstimate",
    "estimate_cost",
    "estimate_design_space",
    "analytic_best",
]
