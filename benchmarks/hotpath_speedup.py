"""Hot-path speedup gates (single server, fig11 config).

Times the same simulation in four modes per interleaved round, each run
its own ``benchmarks/_driver.py`` process:

* ``fast`` — the current tree;
* ``mem_ref`` — the pinned baseline tree (``_timing.BASELINE_COMMIT``)
  with ``REPRO_MEM_SLOWPATH=1``: that commit's reference per-access
  memory walk (linear tag scans, scalar access/sampling loops);
* ``mem_sched_ref`` — the baseline with ``REPRO_MEM_SLOWPATH=1`` and
  ``REPRO_SCHED_SLOWPATH=1``: both reference implementations, a live
  replica of the pre-fast-path behavior;
* ``sched_ref`` — the baseline with ``REPRO_SCHED_SLOWPATH=1`` only (its
  batched memory walk, the one-event-at-a-time engine loop and
  object-walk queue scans).

``bench_results/BENCH_hotpath.json`` gates on every run of every mode
having one result digest (bit-identity is the hot paths' contract, also
pinned by ``tests/test_hotpath_parity.py``), on the memory speedup
(``mem_ref`` over ``fast`` best CPU time) reaching
:data:`MIN_MEM_SPEEDUP` and on the combined one (``mem_sched_ref`` over
``fast``) reaching :data:`MIN_COMBINED_SPEEDUP`.

Honest-numbers notes:

* ``sched_ref`` over ``fast`` is recorded, not gated.  It is the
  scheduler layer's marginal contribution over a batched memory walk,
  small at this single-server config because once the walk is batched,
  wall time is mostly cache-walk work, not event dispatch.  It runs the
  baseline's memory walk, a few percent faster than the current one, so
  it slightly understates the scheduler layer.
* The references carry the per-access *algorithms* over the baseline
  commit's data structures, which include hashed-index upkeep the
  original tree did not pay on fills, so the ratios track the cost of
  the reference algorithms rather than the speedup over the original
  seed tree.

Methodology: see :mod:`benchmarks._timing`.  Needs the baseline commit
in the local clone (full history).

Usage::

    PYTHONPATH=src python benchmarks/hotpath_speedup.py [--rounds 3] \
        [--horizon-ms 60]
"""

from __future__ import annotations

import argparse

from _timing import (
    HEAD_SRC,
    baseline_src,
    best_cpu,
    best_wall,
    digest_gate,
    driver,
    gate,
    interleaved_rounds,
    write_record,
)

#: Mode -> the baseline switches selecting its implementation (None: the
#: current tree).  ``fast`` comes first: the record's digest is its.
MODES = {
    "fast": None,
    "mem_ref": {"REPRO_MEM_SLOWPATH": "1"},
    "mem_sched_ref": {"REPRO_MEM_SLOWPATH": "1", "REPRO_SCHED_SLOWPATH": "1"},
    "sched_ref": {"REPRO_SCHED_SLOWPATH": "1"},
}

#: Floors of the memory and the memory+scheduler CPU-time speedups.
MIN_MEM_SPEEDUP = 1.5
MIN_COMBINED_SPEEDUP = 1.6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=3,
                        help="interleaved measurement rounds per mode")
    parser.add_argument("--horizon-ms", type=float, default=60.0)
    parser.add_argument("--warmup-ms", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
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
                (name, driver(base if env else HEAD_SRC, spec, env))
                for name, env in MODES.items()
            ],
            args.rounds,
        )

    digest, digests_equal = digest_gate(samples)
    cpu = {name: best_cpu(runs) for name, runs in samples.items()}
    speedup = {name: cpu[name] / cpu["fast"] for name in MODES if name != "fast"}
    return write_record(
        "hotpath",
        config={"system": "hardharvest_block", "seed": args.seed,
                "horizon_ms": args.horizon_ms, "warmup_ms": args.warmup_ms,
                "rounds": args.rounds},
        end_to_end={
            "cpu_s": {name: round(value, 3) for name, value in cpu.items()},
            "wall_s": {
                name: round(best_wall(runs), 3) for name, runs in samples.items()
            },
            "speedup_cpu": {
                name: round(value, 3) for name, value in speedup.items()
            },
        },
        digest=digest,
        gates={
            "digests_equal": digests_equal,
            "mem_speedup_cpu": gate(speedup["mem_ref"], MIN_MEM_SPEEDUP),
            "combined_speedup_cpu": gate(
                speedup["mem_sched_ref"], MIN_COMBINED_SPEEDUP
            ),
        },
        out=args.out,
        baseline=True,
    )


if __name__ == "__main__":
    raise SystemExit(main())
