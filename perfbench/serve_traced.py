"""Run ``python -m repro serve`` with the benchmark's wrappers installed.

    python3 perfbench/serve_traced.py TRACE_DIR serve [serve options]

The wrappers go in before the service builds anything, so the job
threads' sweeps and the pool workers they fork are traced.  When SIGTERM
drains the server, its own aggregates are appended to ``TRACE_DIR``
next to the files its pool workers wrote.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

from perfbench import tracing  # noqa: E402
from repro.__main__ import main  # noqa: E402


def run() -> int:
    trace_dir = sys.argv[1]
    rec = tracing.Recorder(trace_dir)
    tracing.install(rec)
    code = main(sys.argv[2:])
    with open(os.path.join(trace_dir, f"server-{os.getpid()}.jsonl"), "a") as fh:
        fh.write(json.dumps(rec.totals()) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(run())
