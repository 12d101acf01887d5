"""Inter-dependent design dimensions: choosing push/pull without DRFrlx.

Reproduces the paper's Section VI example: for MIS on the RAJ input, the
best configuration is push (SDR) *if* the hardware supports DRFrlx, but
pull (TG0) if it only supports DRF1 — so the software's push-vs-pull
choice cannot be made without knowing the hardware's consistency support.
The partial design-space model (Section IV-B) captures exactly this.

Usage: python examples/partial_hardware.py
"""

from repro import (
    predict_configuration,
    predict_partial_configuration,
    run_workload,
    scaled_system,
    sim_dataset,
    workload_profile,
)
from repro.graph import DEFAULT_SIM_SCALE
from repro.harness import render_bar


def main() -> None:
    graph = sim_dataset("RAJ")
    scale = DEFAULT_SIM_SCALE["RAJ"]
    system = scaled_system(scale)

    profile = workload_profile(graph, "MIS", system=system)
    full = predict_configuration(profile)
    partial = predict_partial_configuration(profile)
    print("MIS on RAJ (low volume, high reuse, HIGH imbalance)")
    print(f"  model, full design space:      {full.code}")
    print(f"  model, hardware without DRFrlx: {partial.code}")

    print("\nsimulating ...")
    result = run_workload("MIS", graph, system=system)
    normalized = result.normalized()
    print(f"\n{'config':>6s} | normalized execution time")
    for code, value in normalized.items():
        print(render_bar(code, value))

    restricted = {c: v for c, v in normalized.items()
                  if not c.endswith("R")}
    best_full = min(normalized, key=normalized.get)
    best_restricted = min(restricted, key=restricted.get)
    print(f"\nbest with DRFrlx:    {best_full}")
    print(f"best without DRFrlx: {best_restricted}")
    if best_full[0] != best_restricted[0]:
        print("\n=> the push-vs-pull choice FLIPS with consistency support: "
              "software designers deciding on push vs. pull must consider "
              "the consistency model the hardware provides (Section VI).")


if __name__ == "__main__":
    main()
