"""Spans around calls into each layer's public entry points.

The untraced run installs nothing.  With ``--trace 1`` the benchmark
calls :func:`install`, which rebinds the entry points below — in every
loaded ``repro`` module that imported them — to thin wrappers recording
spans (name, start, end, parent) and counters into a per-process
:class:`Tracer`.  Only entry points that survive the ROADMAP's planned
deletions are wrapped: simulators returned by ``make_simulator`` (never
an engine class), and ``run_plan`` (never an executor class).

Pool workers forked after :func:`install` inherit the wrappers; each
worker flushes what it recorded after every unit to a file named by the
unit's spec digest, and the parent merges those files with
:meth:`Tracer.merge_flushed`, so worker busy time and the tracegen/engine
split are measured where the work runs.  The serve daemon runs the same
wrappers through ``perfbench/daemon.py`` and writes its spans at exit.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

clock = time.perf_counter


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self, flush_dir: str | Path | None = None) -> None:
        self.flush_dir = Path(flush_dir) if flush_dir is not None else None
        self.pid = os.getpid()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._flushes = 0

    @property
    def in_worker(self) -> bool:
        return os.getpid() != self.pid

    def after_fork(self) -> None:
        """A forked child starts empty: the parent's spans are not its own."""
        self.reset()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = [name, clock(), 0.0, stack[-1] if stack else -1]
        index = len(self.spans)
        self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record[2] = clock()
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # -- worker flush / parent merge --------------------------------------

    def flush(self, key: str) -> None:
        """Write this process's records under ``key`` and start afresh."""
        if self.flush_dir is None:
            return
        self._flushes += 1
        path = self.flush_dir / f"{key}-{os.getpid()}-{self._flushes}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"spans": self.spans,
                                   "counters": dict(self.counters)}))
        os.replace(tmp, path)
        self.spans = []
        self.counters = defaultdict(float)

    def merge(self, payload: dict) -> None:
        offset = len(self.spans)
        for name, start, end, parent in payload["spans"]:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1])
        for name, value in payload["counters"].items():
            self.counters[name] += value

    def merge_flushed(self) -> None:
        """Fold every flushed worker file into this tracer."""
        for path in sorted(self.flush_dir.glob("*.json")):
            self.merge(json.loads(path.read_text()))
            path.unlink()

    # -- derivation ---------------------------------------------------------

    def total(self, prefix: str) -> float:
        """Summed duration of spans named ``prefix`` or ``prefix:...``."""
        return sum(end - start for name, start, end, _p in self.spans
                   if name == prefix or name.startswith(prefix + ":"))

    def self_time(self, name: str) -> tuple[float, float]:
        """(summed duration, summed self time) of spans named ``name``."""
        covered = defaultdict(float)
        for _n, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        wall = own = 0.0
        for index, (n, start, end, _p) in enumerate(self.spans):
            if n == name:
                wall += end - start
                own += end - start - covered[index]
        return wall, own


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (covers ``from x import f`` copies)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _timed(tracer: Tracer, name: str, func):
    @wraps(func)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return func(*args, **kwargs)
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points (call before any pool forks)."""
    import repro.harness.runner as runner
    import repro.harness.sweep as sweep
    import repro.runtime.executor as executor
    from repro.configs import figure5_configurations
    from repro.kernels.registry import KERNELS
    from repro.kernels.tracegen import TraceBuilder
    from repro.model.pruning import PruningPolicy
    from repro.runtime.cache import ResultCache
    from repro.runtime.spec import GraphRef

    os.register_at_fork(after_in_child=tracer.after_fork)

    # repro.graph: every dataset build goes through GraphRef.load.
    GraphRef.load = _timed(tracer, "graph.build", GraphRef.load)

    # repro.harness.sweep / repro.model / repro.taxonomy.
    _rebind(sweep.plan_sweep, _timed(tracer, "sweep.plan", sweep.plan_sweep))
    _rebind(sweep.aggregate_sweep,
            _timed(tracer, "sweep.aggregate", sweep.aggregate_sweep))
    _rebind(sweep.profile_graph,
            _timed(tracer, "taxonomy.profile", sweep.profile_graph))
    _rebind(sweep.profile_workload,
            _timed(tracer, "taxonomy.profile", sweep.profile_workload))
    PruningPolicy.subset = _timed(tracer, "model.prune", PruningPolicy.subset)

    # repro.runtime executor layer: the plan, and each unit where it runs.
    run_plan = executor.run_plan

    @wraps(run_plan)
    def traced_run_plan(plan, *args, **kwargs):
        units = list(plan)
        for spec in units:
            grid = figure5_configurations(KERNELS[spec.app].traversal)
            tracer.count("model.config_sims", len(spec.configs))
            tracer.count("model.grid_sims", len(grid))
        with tracer.span("executor.run_plan"):
            return run_plan(units, *args, **kwargs)

    _rebind(run_plan, traced_run_plan)

    execute_spec = executor.execute_spec

    @wraps(execute_spec)
    def traced_execute_spec(spec):
        try:
            with tracer.span("executor.unit"):
                return execute_spec(spec)
        finally:
            if tracer.in_worker:
                tracer.flush(spec.digest())

    _rebind(execute_spec, traced_execute_spec)

    # repro.runtime.cache.
    get, put = ResultCache.get, ResultCache.put

    @wraps(get)
    def traced_get(self, spec):
        with tracer.span("cache.get"):
            hit = get(self, spec)
        if hit is None:
            tracer.count("cache.misses")
        return hit

    @wraps(put)
    def traced_put(self, spec, result):
        with tracer.span("cache.put"):
            path = put(self, spec, result)
        tracer.count("cache.puts")
        tracer.count("cache.bytes_written", os.path.getsize(path))
        return path

    ResultCache.get, ResultCache.put = traced_get, traced_put

    # repro.kernels operators: time spent inside kernel.iterations().
    make_kernel = runner.make_kernel

    @wraps(make_kernel)
    def traced_make_kernel(*args, **kwargs):
        kernel = make_kernel(*args, **kwargs)
        iterations = kernel.iterations

        def traced_iterations(*it_args, **it_kwargs):
            stream = iterations(*it_args, **it_kwargs)
            while True:
                with tracer.span("kernels.iterate"):
                    item = next(stream, StopIteration)
                if item is StopIteration:
                    return
                yield item

        kernel.iterations = traced_iterations
        return kernel

    _rebind(make_kernel, traced_make_kernel)

    # repro.kernels.tracegen.
    realize_iteration = TraceBuilder.realize_iteration

    @wraps(realize_iteration)
    def traced_realize(self, phases, direction):
        hits, misses = self.memo_hits, self.memo_misses
        with tracer.span(f"tracegen.realize:{direction}"):
            traces = realize_iteration(self, phases, direction)
        tracer.count("tracegen.memo_hits", self.memo_hits - hits)
        tracer.count("tracegen.memo_lookups",
                     self.memo_hits - hits + self.memo_misses - misses)
        tracer.count("tracegen.ops", sum(t.op_count for t in traces))
        return traces

    TraceBuilder.realize_iteration = traced_realize

    # repro.sim: wrap the simulator instances make_simulator hands out.
    make_simulator = runner.make_simulator

    @wraps(make_simulator)
    def traced_make_simulator(config, coherence="gpu", consistency="drf0",
                              *args, **kwargs):
        simulator = make_simulator(config, coherence, consistency,
                                   *args, **kwargs)
        feed = simulator.feed
        model = getattr(consistency, "name", consistency)
        name = f"engine.feed:{coherence}:{model}"

        def traced_feed(kernel):
            with tracer.span(name):
                cycles = feed(kernel)
            tracer.count("engine.ops", kernel.op_count)
            tracer.count("engine.kernels")
            return cycles

        simulator.feed = traced_feed
        return simulator

    _rebind(make_simulator, traced_make_simulator)


def overhead_frac(tracer: Tracer, busy_s: float) -> float:
    """Estimated share of ``busy_s`` the wrappers cost.

    On a host whose CPU throughput drifts by tens of percent between
    runs, a traced-vs-untraced wall difference cannot resolve a cost of
    a few percent, so the cost is measured directly: spans recorded ×
    the time one wrapped call adds (a span plus two counter updates).
    """
    probe = Tracer()
    calls = 20000
    start = clock()
    for _ in range(calls):
        with probe.span("probe"):
            pass
        probe.count("a")
        probe.count("b", 2)
    per_call = (clock() - start) / calls
    return len(tracer.spans) * per_call / busy_s if busy_s else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics every workload shares, from spans/counters."""
    c = tracer.counters
    feed_s = tracer.total("engine.feed")
    ops = c["engine.ops"]
    per_model = defaultdict(float)
    for name, start, end, _p in tracer.spans:
        if name.startswith("engine.feed:"):
            _, coherence, model = name.split(":")
            per_model[coherence] += end - start
            per_model[model] += end - start
    lookups = c["tracegen.memo_lookups"]
    grid = c["model.grid_sims"]
    return {
        "graph.build_s": tracer.total("graph.build"),
        "kernels.iterate_s": tracer.total("kernels.iterate"),
        "tracegen.realize_s": tracer.total("tracegen.realize"),
        "tracegen.realize_s.push": tracer.total("tracegen.realize:push"),
        "tracegen.realize_s.pull": tracer.total("tracegen.realize:pull"),
        "tracegen.ops": c["tracegen.ops"],
        "tracegen.memo_hit_ratio": (c["tracegen.memo_hits"] / lookups
                                    if lookups else 0.0),
        "engine.feed_s": feed_s,
        "engine.feed_s.gpu": per_model["gpu"],
        "engine.feed_s.denovo": per_model["denovo"],
        "engine.feed_s.drf0": per_model["drf0"],
        "engine.feed_s.drf1": per_model["drf1"],
        "engine.feed_s.drfrlx": per_model["drfrlx"],
        "engine.ops": ops,
        "engine.us_per_op": feed_s / ops * 1e6 if ops else 0.0,
        "engine.kernels": c["engine.kernels"],
        "sweep.plan_s": tracer.total("sweep.plan"),
        "model.prune_s": tracer.total("model.prune"),
        "model.config_sims": c["model.config_sims"],
        "model.kept_frac": c["model.config_sims"] / grid if grid else 0.0,
        "sweep.aggregate_s": tracer.total("sweep.aggregate"),
        "taxonomy.profile_s": tracer.total("taxonomy.profile"),
        "executor.run_plan_s": tracer.total("executor.run_plan"),
        "executor.worker_busy_s": tracer.total("executor.unit"),
        "cache.get_s": tracer.total("cache.get"),
        "cache.misses": c["cache.misses"],
        "cache.put_s": tracer.total("cache.put"),
        "cache.puts": c["cache.puts"],
        "cache.bytes_written": c["cache.bytes_written"],
    }
