"""Modeled numbers must not depend on Python's string hash seed.

The address map lays regions out on first touch, so anything that
realizes traces in hash order (a ``set`` of directions, say) moves every
region's base line and with it the modeled cycles.  This runs one
workload that realizes both directions — SSSP on OLS at its simulation
scale, push (TG0) and pull (SG1) — in two interpreters with different
``PYTHONHASHSEED`` values and requires identical results.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json
from repro.configs import parse_config
from repro.runtime import GraphRef, WorkloadSpec, execute_spec
from repro.sim.config import scaled_system

ref = GraphRef.dataset("OLS")
spec = WorkloadSpec.for_workload(
    "SSSP", ref, configs=[parse_config("TG0"), parse_config("SG1")],
    system=scaled_system(ref.scale), max_iters=1)
print(json.dumps(execute_spec(spec).to_dict()))
"""


def _result_under(hash_seed: str) -> dict:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(done.stdout)


def test_workload_result_is_independent_of_hash_seed():
    first = _result_under("0")
    assert set(first["results"]) == {"TG0", "SG1"}
    assert _result_under("4") == first
