"""Sweep-runner wall-clock smoke: serial vs parallel vs cached.

Runs a small (systems x seeds) grid three ways — ``workers=1`` cold,
``workers=2`` cold, then ``workers=2`` against the now-warm cache — and
records the wall-clocks plus the cache hit rate under ``bench_results/``
as ``BENCH_sweep_runner.json``.  The record's gates: the three runs
share one ``sweep_results_digest``, the warm run served every point from
the cache, and it beat the cold serial run.  CI invokes this on every
push, and the script exits 1 when a gate fails.

``parallel_speedup`` > 1 needs real cores: on a single-CPU host two
workers time-slice one core and the pool overhead is pure loss.

Usage::

    PYTHONPATH=src python benchmarks/sweep_smoke.py [--horizon-ms 40]
"""

from __future__ import annotations

import argparse
import shutil
import tempfile
import time

from repro.config import SimulationConfig
from repro.core.export import sweep_results_digest
from repro.core.presets import all_systems
from repro.parallel import ResultCache, SweepSpec, run_sweep

from _timing import gate, write_record


def timed_sweep(spec, workers, cache=None):
    started = time.perf_counter()
    outcome = run_sweep(spec, workers=workers, cache=cache)
    return time.perf_counter() - started, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon-ms", type=float, default=40.0)
    parser.add_argument("--accesses", type=int, default=6)
    parser.add_argument("--seeds", type=int, default=2,
                        help="number of seeds in the grid")
    parser.add_argument("--out", default=None,
                        help="output path (default bench_results/BENCH_sweep_runner.json)")
    args = parser.parse_args(argv)

    spec = SweepSpec(
        systems=all_systems(),
        seeds=tuple(range(args.seeds)),
        sim=SimulationConfig(
            horizon_ms=args.horizon_ms,
            warmup_ms=args.horizon_ms / 5,
            accesses_per_segment=args.accesses,
        ),
    )
    cache_dir = tempfile.mkdtemp(prefix="repro-sweep-smoke-")
    try:
        serial_s, serial = timed_sweep(spec, workers=1)
        parallel_s, parallel = timed_sweep(
            spec, workers=2, cache=ResultCache(root=cache_dir)
        )
        warm_cache = ResultCache(root=cache_dir)
        cached_s, cached = timed_sweep(spec, workers=2, cache=warm_cache)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    digests = {sweep_results_digest(outcome.results)
               for outcome in (serial, parallel, cached)}
    return write_record(
        "sweep_runner",
        config={"horizon_ms": args.horizon_ms, "accesses": args.accesses,
                "seeds": args.seeds, "points": spec.size()},
        end_to_end={
            "workers1_cold_s": round(serial_s, 3),
            "workers2_cold_s": round(parallel_s, 3),
            "workers2_cached_s": round(cached_s, 3),
            "parallel_speedup": round(serial_s / parallel_s, 3),
            "cache_speedup": round(serial_s / cached_s, 3),
        },
        digest=sweep_results_digest(serial.results),
        gates={
            "digests_equal": gate(len(digests) == 1),
            "warm_points_cached": gate(cached.from_cache, spec.size()),
            # The cache must actually short-circuit simulation.
            "cached_beats_cold_serial": gate(cached_s < serial_s),
        },
        detail={"cache_hit_rate": warm_cache.stats.hit_rate()},
        out=args.out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
