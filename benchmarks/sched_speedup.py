"""Scheduler + combined speedup benchmark (single server, fig11 config).

Times the same simulation in three modes per interleaved round:

* ``reference`` — the pinned baseline tree (``_timing.BASELINE_COMMIT``)
  with ``REPRO_MEM_SLOWPATH=1`` *and* ``REPRO_SCHED_SLOWPATH=1``: both of
  that commit's reference implementations together, a live replica of the
  pre-fast-path behavior and the denominator of the headline
  ``speedup_cpu``;
* ``sched_reference`` — the baseline tree with ``REPRO_SCHED_SLOWPATH=1``
  only (its batched memory walk, the reference one-event-at-a-time engine
  loop and object-walk queue scans): isolates what the scheduler layer
  contributes on top of a batched memory walk;
* ``fast`` — the current tree.

All three modes must produce the *same result digest* (bit-identity is
the hot paths' contract, pinned independently by
``tests/test_hotpath_parity.py``); the benchmark aborts on divergence, so
a speedup number can never come from a behavioral shortcut.

Methodology (see :mod:`benchmarks._timing`): interleaved rounds,
best-of-N, CPU-time headline, digest guard, each run in its own
``benchmarks/_driver.py`` process.

Honest-numbers note: the memory layer dominates the reference cost; the
scheduler layer's marginal contribution over a batched memory walk is
small at this single-server config (~1.0–1.2x; it grows on queue-heavy
cluster configs), because once the walk is batched, wall time is mostly
cache-walk work, not event dispatch.  ``sched_reference`` runs the
baseline commit's memory walk, a few percent faster than the current
one, so ``sched_layer_speedup_cpu`` slightly understates the scheduler
layer.

Needs the baseline commit in the local clone (full history).

Usage::

    PYTHONPATH=src python benchmarks/sched_speedup.py [--rounds 3] \
        [--horizon-ms 60] [--min-speedup 1.6]
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

#: Baseline-tree mode name -> the switches selecting its implementation.
BASELINE_MODES = {
    "reference": {"REPRO_MEM_SLOWPATH": "1", "REPRO_SCHED_SLOWPATH": "1"},
    "sched_reference": {"REPRO_SCHED_SLOWPATH": "1"},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=3,
                        help="interleaved measurement rounds per mode")
    parser.add_argument("--horizon-ms", type=float, default=60.0)
    parser.add_argument("--warmup-ms", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero if the combined CPU-time speedup "
                             "is below this (CI gate)")
    parser.add_argument("--out", default=None,
                        help="output path (default bench_results/BENCH_sched_hotpath.json)")
    args = parser.parse_args(argv)

    spec = {
        "workload": "server",
        "seed": args.seed,
        "horizon_ms": args.horizon_ms,
        "warmup_ms": args.warmup_ms,
    }
    with baseline_src() as base:
        modes = [
            (name, driver(base, spec, switches))
            for name, switches in BASELINE_MODES.items()
        ]
        modes.append(("fast", driver(HEAD_SRC, spec)))
        samples = interleaved_rounds(modes, args.rounds)

    try:
        digest = require_same_digest(samples)
    except RuntimeError as exc:
        print(f"ERROR: {exc}")
        return 1

    ref_cpu = best_cpu(samples["reference"])
    sched_ref_cpu = best_cpu(samples["sched_reference"])
    fast_cpu = best_cpu(samples["fast"])
    speedup_cpu = ref_cpu / fast_cpu
    sched_layer_cpu = sched_ref_cpu / fast_cpu

    record = {
        "benchmark": "sched_hotpath_speedup",
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
        "sched_reference_cpu_s": round(sched_ref_cpu, 3),
        "fast_cpu_s": round(fast_cpu, 3),
        "reference_wall_s": round(best_wall(samples["reference"]), 3),
        "sched_reference_wall_s": round(best_wall(samples["sched_reference"]), 3),
        "fast_wall_s": round(best_wall(samples["fast"]), 3),
        "speedup_cpu": round(speedup_cpu, 3),
        "speedup_wall": round(
            best_wall(samples["reference"]) / best_wall(samples["fast"]), 3
        ),
        "sched_layer_speedup_cpu": round(sched_layer_cpu, 3),
        "digest": digest,
        "baseline_note": (
            "reference = baseline_commit run with REPRO_MEM_SLOWPATH=1 and "
            "REPRO_SCHED_SLOWPATH=1 (that commit's pre-fast-path algorithms "
            "over its data structures); sched_reference = baseline_commit "
            "with REPRO_SCHED_SLOWPATH=1 only; fast = the current tree. Each "
            "run is its own benchmarks/_driver.py process timing the run "
            "alone. The combined speedup is dominated by the memory layer; "
            "sched_layer_speedup_cpu is the scheduler layer's marginal "
            "contribution over a batched memory walk (the baseline's, a few "
            "percent faster than the current one)."
        ),
    }
    write_record(record, "BENCH_sched_hotpath.json", args.out)

    if args.min_speedup is not None and speedup_cpu < args.min_speedup:
        print(f"ERROR: combined CPU speedup {speedup_cpu:.3f} below required "
              f"{args.min_speedup}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
