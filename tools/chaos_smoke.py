"""Kill-and-resume chaos smoke: SIGKILL a worker mid-sweep, then resume.

CI's standing proof that node-level fault tolerance works end to end,
not just unit-by-unit:

Phase A runs a two-node sweep over a named work queue with a
deterministic ``node-kill`` injected into one unit — the worker holding
it takes a real SIGKILL mid-unit.  The coordinator must notice the death, reclaim
the lease, restart the node under a fresh incarnation, let the unit be
stolen, and drain the queue with results bit-identical to a serial run.

Phase B re-runs the same sweep against the same queue and cache — the
resume path.  Every unit must restore from the shared cache with ZERO
re-simulation, proven by the work queue's own records: no new
``lease.claim`` appears anywhere in phase B's event logs, and every
done marker phase A wrote is left byte-for-byte unchanged.

The event accounting identity is checked across both phases: with kills
as the only chaos, every claim ends in exactly one completion win or
dies with its lease, so ``claims == units + expires``.

Usage: python tools/chaos_smoke.py [QUEUE_DIR]
Exits nonzero on the first violated invariant.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from repro import obs
from repro.runtime import (
    ExecutionPlan,
    FaultInjector,
    FaultRule,
    MultiNodeExecutor,
    RESULT_SCHEMA_VERSION,  # noqa: F401  (pin: results are schema-keyed)
    WorkQueue,
    run_plan,
)
from repro.sim.config import SystemConfig

GRAPHS = ("DCT", "RAJ")
APPS = ("PR", "CC")
SCALES = {"DCT": 64, "RAJ": 32}
KILLED_UNIT = "RAJ/CC"
SYSTEM = SystemConfig(num_sms=4, l1_bytes=1024, l2_bytes=16 * 1024,
                      tb_size=64, max_tbs_per_sm=2,
                      kernel_launch_cycles=100)

_failures = 0


def check(condition, message):
    global _failures
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        _failures = 1


def worker_claims(queue_dir):
    """Every lease.claim journaled by worker nodes, across node logs."""
    claims = []
    for path in sorted((queue_dir / "events").glob("*.jsonl")):
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            event = json.loads(line)
            if event["kind"] == "lease.claim":
                claims.append(event)
    return claims


def main(queue_dir=None):
    owns_dir = queue_dir is None
    queue_dir = Path(queue_dir or tempfile.mkdtemp(prefix="repro-chaos-"))
    plan = ExecutionPlan.for_sweep(GRAPHS, APPS, max_iters=2,
                                   scales=SCALES, base_system=SYSTEM)

    print(f"plan: {len(plan)} units; baseline serial run ...")
    baseline = [r.to_dict() for r in run_plan(plan)]

    print(f"phase A: 2-node sweep, SIGKILL on first touch of "
          f"{KILLED_UNIT} (queue: {queue_dir})")
    injector = FaultInjector(rules=(
        FaultRule(kind="node-kill", match=KILLED_UNIT, attempts=1),))
    observer = obs.enable(ring=65536)
    ring = observer.sinks[0]
    executor = MultiNodeExecutor(nodes=2, injector=injector,
                                 queue_dir=queue_dir, lease_ttl=10.0)
    results = run_plan(plan, executor=executor)
    obs.disable()

    check([r.to_dict() for r in results] == baseline,
          "chaos results bit-identical to serial")

    kills = [e for e in ring.events("node.leave")
             if e.data["reason"] == "crash"]
    expires = ring.events("lease.expire")
    claims = worker_claims(queue_dir)
    check(len(kills) == 1, f"exactly one worker crashed ({len(kills)})")
    check(len(expires) == 1 and expires[0].data["reason"] == "node-death",
          "the dead worker's lease was reclaimed on observed death")
    check(len(claims) == len(plan) + len(expires),
          f"event accounting: claims ({len(claims)}) == units "
          f"({len(plan)}) + expires ({len(expires)})")

    queue = WorkQueue(queue_dir)
    markers = [queue.outcome(spec.digest()) for spec in plan]
    check(all(marker is not None and marker["status"] == "ok"
              for marker in markers),
          "done markers cover every unit")
    check(all(marker is not None and marker.get("node")
              for marker in markers),
          "done markers keep per-node provenance")

    print("phase B: resume against the same queue and cache ...")
    claims_before = len(claims)
    done_before = {path.name: path.read_bytes()
                   for path in queue.done_dir.glob("*.json")}
    # Observer on again: with it off, workers would not journal events
    # and the no-new-claims check below would pass vacuously.
    obs.enable(ring=1024)
    executor = MultiNodeExecutor(nodes=2, queue_dir=queue_dir, lease_ttl=10.0)
    resumed = run_plan(plan, executor=executor)
    obs.disable()
    check([r.to_dict() for r in resumed] == baseline,
          "resumed results bit-identical to serial")
    check(len(worker_claims(queue_dir)) == claims_before,
          "zero re-simulated units on resume (no new lease claims)")
    done_after = {path.name: path.read_bytes()
                  for path in queue.done_dir.glob("*.json")}
    check(len(done_before) == len(plan) and done_after == done_before,
          "resume leaves every done marker unchanged")

    if owns_dir and not _failures:
        shutil.rmtree(queue_dir, ignore_errors=True)
    print("chaos smoke:", "FAILED" if _failures else "passed")
    return _failures


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
