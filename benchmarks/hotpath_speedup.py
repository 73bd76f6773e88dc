"""Memory-hierarchy speedup benchmark (single server, fig11 config).

Runs the same simulation twice per round — once from the pinned baseline
tree (``_timing.BASELINE_COMMIT``) with ``REPRO_MEM_SLOWPATH=1``, that
commit's reference per-access implementation and a live replica of the
pre-fast-path behavior, and once from the current tree's batched memory
walk — and records best-of-N wall and CPU times plus their ratio under
``bench_results/BENCH_hotpath.json``.

Both modes must produce the *same result digest* (bit-identity is the
memory walk's contract, pinned independently by
``tests/test_hotpath_parity.py``); the benchmark aborts if they diverge,
so a speedup number can never come from a behavioral shortcut.

Methodology (see :mod:`benchmarks._timing`): interleaved rounds,
best-of-N, CPU-time headline, digest guard, each run in its own
``benchmarks/_driver.py`` process.  Scope note: the reference carries the
per-access *algorithms* (linear tag scans, scalar access/sampling loops)
over the baseline commit's data structures, which include hashed-index
upkeep the original tree did not pay on fills, so the ratio tracks the
cost of the reference access algorithms rather than the speedup over the
original seed tree.

Needs the baseline commit in the local clone (full history).

Usage::

    PYTHONPATH=src python benchmarks/hotpath_speedup.py [--rounds 3] \
        [--horizon-ms 60] [--min-speedup 1.5]
"""

from __future__ import annotations

import argparse
import platform

import repro

from _timing import (
    BASELINE_COMMIT,
    HEAD_SRC,
    baseline_src,
    best_cpu,
    best_wall,
    driver,
    interleaved_rounds,
    require_same_digest,
    write_record,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=3,
                        help="interleaved measurement rounds per mode")
    parser.add_argument("--horizon-ms", type=float, default=60.0)
    parser.add_argument("--warmup-ms", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero if the CPU-time speedup is below "
                             "this (CI gate)")
    parser.add_argument("--out", default=None,
                        help="output path (default bench_results/BENCH_hotpath.json)")
    args = parser.parse_args(argv)

    spec = {
        "workload": "server",
        "seed": args.seed,
        "horizon_ms": args.horizon_ms,
        "warmup_ms": args.warmup_ms,
    }
    with baseline_src() as base:
        samples = interleaved_rounds(
            [
                ("reference", driver(base, spec, {"REPRO_MEM_SLOWPATH": "1"})),
                ("fast", driver(HEAD_SRC, spec)),
            ],
            args.rounds,
        )

    try:
        digest = require_same_digest(samples)
    except RuntimeError as exc:
        print(f"ERROR: {exc}")
        return 1

    ref_cpu = best_cpu(samples["reference"])
    fast_cpu = best_cpu(samples["fast"])
    ref_wall = best_wall(samples["reference"])
    fast_wall = best_wall(samples["fast"])
    speedup_cpu = ref_cpu / fast_cpu

    record = {
        "benchmark": "mem_hotpath_speedup",
        "version": repro.__version__,
        "python": platform.python_version(),
        "config": {
            "system": "hardharvest_block",
            "seed": args.seed,
            "horizon_ms": args.horizon_ms,
            "warmup_ms": args.warmup_ms,
        },
        "rounds": args.rounds,
        "baseline_commit": BASELINE_COMMIT,
        "reference_cpu_s": round(ref_cpu, 3),
        "fast_cpu_s": round(fast_cpu, 3),
        "reference_wall_s": round(ref_wall, 3),
        "fast_wall_s": round(fast_wall, 3),
        "speedup_cpu": round(speedup_cpu, 3),
        "speedup_wall": round(ref_wall / fast_wall, 3),
        "digest": digest,
        "baseline_note": (
            "reference = baseline_commit run with REPRO_MEM_SLOWPATH=1 (linear "
            "tag scans, scalar access/sampling loops over that commit's data "
            "structures); fast = the current tree. Each run is its own "
            "benchmarks/_driver.py process timing the run alone. For the "
            "combined memory+scheduler ratio see BENCH_sched_hotpath.json."
        ),
    }
    write_record(record, "BENCH_hotpath.json", args.out)

    if args.min_speedup is not None and speedup_cpu < args.min_speedup:
        print(f"ERROR: CPU speedup {speedup_cpu:.3f} below required "
              f"{args.min_speedup}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
