"""Run ``python -m repro ...`` with the benchmark's layer wrappers.

Usage: python3 perfbench/daemon.py SPANS_OUT serve [repro serve flags]

Used only by the traced serve-mixed run: the daemon keeps its default
flags, and the spans and counters it recorded are written to SPANS_OUT
as JSON when it exits.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    import repro.serve.server  # noqa: F401  (loaded so install rebinds it)
    from repro.cli import main as repro_main

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return repro_main(sys.argv[2:])
    finally:
        out.write_text(json.dumps({"spans": tracer.spans,
                                   "counters": dict(tracer.counters)}))


if __name__ == "__main__":
    raise SystemExit(main())
