"""The full-design-space specialization model (Section IV-A, Figure 4).

Six inputs — volume, reuse, and imbalance classes of the graph plus the
application's traversal, control, and information properties — drive a
decision tree that picks one of the 12 configurations:

1. Dynamic traversal -> push+pull with DeNovo and DRF1 (``DD1``):
   ownership exploits the constricting reuse of racy accesses, and the
   value-returning atomics cap what relaxation could buy (Section IV-A4).
2. Static traversal: **push** when control or information prefers the
   source, or when the input has medium/low reuse, medium/high imbalance,
   or high volume; otherwise **pull** paired with GPU coherence and DRF0
   (``TG0`` — no fine-grained atomics to optimize).
3. Push coherence: **GPU** for medium/low reuse or high volume (no point
   registering ownership the L1 cannot exploit); otherwise **DeNovo**.
4. Push consistency: **DRFrlx** for high imbalance or high/medium volume
   (overlapped atomics hide imbalance and thrashing-induced latency);
   otherwise the easier-to-program **DRF1**.
"""

from __future__ import annotations

from ..configs import Configuration
from ..taxonomy.algorithmic import Control, Information, Traversal
from ..taxonomy.classify import Level
from ..taxonomy.profile import WorkloadProfile

__all__ = ["predict_configuration", "explain_prediction"]


def _push_coherence(volume: Level, reuse: Level) -> str:
    """Coherence choice given a push implementation (IV-A2)."""
    if reuse in (Level.MEDIUM, Level.LOW) or volume is Level.HIGH:
        return "gpu"
    return "denovo"


def _walk(profile: WorkloadProfile) -> tuple[Configuration, list[str]]:
    """The decision tree's answer for one workload and the steps to it."""
    app = profile.app
    graph = profile.graph
    volume, reuse, imbalance = (
        graph.volume_class, graph.reuse_class, graph.imbalance_class)
    steps = [
        f"workload: {app.app} on {graph.name} "
        f"(volume={volume}, reuse={reuse}, "
        f"imbalance={imbalance}; traversal={app.traversal.value}, "
        f"control={app.control.value}, information={app.information.value})"
    ]
    if app.traversal is Traversal.DYNAMIC:
        steps.append(
            "traversal is dynamic -> push+pull; DeNovo exploits constricting "
            "racy reuse; value-returning atomics favor DRF1 -> DD1"
        )
        return Configuration("dynamic", "denovo", "drf1"), steps
    if app.control is Control.SOURCE or app.information is Information.SOURCE:
        steps.append(
            "control or information prefers the source -> push"
        )
    elif (reuse in (Level.MEDIUM, Level.LOW)
          or imbalance in (Level.HIGH, Level.MEDIUM)
          or volume is Level.HIGH):
        # Secondary push test: input properties that defeat pull (IV-A1).
        steps.append(
            "input has medium/low reuse, medium/high imbalance, or high "
            "volume -> pull's locality advantage evaporates -> push"
        )
    else:
        steps.append(
            "high reuse, low imbalance, and non-high volume -> pull with "
            "GPU coherence and DRF0 (no atomics to optimize) -> TG0"
        )
        return Configuration("pull", "gpu", "drf0"), steps
    coherence = _push_coherence(volume, reuse)
    if coherence == "gpu":
        steps.append(
            "medium/low reuse or high volume -> L1 atomics would not be "
            "reused -> GPU coherence"
        )
    else:
        steps.append("high reuse and manageable volume -> DeNovo ownership")
    # Push consistency (IV-A3).
    if imbalance is Level.HIGH or volume in (Level.HIGH, Level.MEDIUM):
        consistency = "drfrlx"
        steps.append(
            "high imbalance or high/medium volume -> overlap atomics with "
            "DRFrlx to mine MLP"
        )
    else:
        consistency = "drf1"
        steps.append("balanced and small -> keep programmable DRF1")
    prediction = Configuration("push", coherence, consistency)
    steps.append(f"prediction: {prediction.code}")
    return prediction, steps


def predict_configuration(profile: WorkloadProfile) -> Configuration:
    """Predict the best configuration for a workload (Figure 4)."""
    return _walk(profile)[0]


def explain_prediction(profile: WorkloadProfile) -> list[str]:
    """Human-readable walk through the decision tree for one workload."""
    return _walk(profile)[1]
