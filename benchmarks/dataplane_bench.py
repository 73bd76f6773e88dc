"""Data-plane benchmark: split-key hashing, cache v2, warm-run speedup.

Measures the three layers of the data-plane fast path against the legacy
data plane on one 128-server cluster configuration, and records the
evidence that the fast path changed nothing about the results each tree
computes:

* **Keying microbench** — legacy ``cache.key(point.payload())`` (full
  ``canonical_json`` per point) vs split-key
  ``cache.key_json(point.payload_json())`` (memoized fragments), in
  keys/second over the run's actual sweep points.  Both keying methods
  live in the current tree, so this runs in-process.
* **Cold + warm cluster runs** — the full configuration is run cold and
  then warm (same cache directory, fresh :class:`ResultCache` instance)
  under both the legacy data plane — the pinned baseline tree
  (``_timing.BASELINE_COMMIT``) with ``REPRO_DATAPLANE_SLOWPATH=1``: v1
  entries, full-payload keying, uncompressed dict IPC — and the current
  tree (v2 entries, split keys, worker memo, compressed chunk IPC).  Each
  run is its own ``benchmarks/_driver.py`` process; a warm run is timed
  after one untimed warm re-run in that process.  The headline is the
  *warm* speedup: a warm re-run is pure data plane, so it isolates
  exactly what this fast path optimizes.
* **Disk footprint** — ``disk_stats()`` bytes of the v1 directory vs the
  v2 directory for the same entries.
* **Digest gates** — the record is only written as passing if each
  tree's cold and warm runs carry one digest, the current tree serves
  none of the legacy v1 entries (a version bump salts every key) and
  recomputes its own digest over them, and a scaled-down cross-check
  (workers=1 and workers=N of the current tree, workers=1 of the legacy
  one) agrees.  The two trees' full-size digests may differ: since 1.6.0
  a server with no Primary arrivals ends at its horizon, where the
  baseline ran it to the safety cap, and the small config has no such
  server.  A speedup that changed a tree's own digest is a bug, not a
  result.

Needs the baseline commit in the local clone (full history).

Usage::

    PYTHONPATH=src python benchmarks/dataplane_bench.py \
        --servers 128 --requests 60000 --workers 4

CI runs a scaled-down configuration; the defaults match the nightly
record.  Exits non-zero if a digest diverges or a ``--min-*`` floor is
missed.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import tempfile
import time

import repro
from repro.cluster_scale import ROUTING_POLICY_NAMES
from repro.cluster_scale.runner import _epoch_points
from repro.config import SystemKind
from repro.parallel.cache import ResultCache
from repro.parallel.sweep import clear_fragment_memo

sys.path.insert(0, os.path.dirname(__file__))
from _driver import build_cluster  # noqa: E402
from _timing import (  # noqa: E402
    BASELINE_COMMIT,
    HEAD_SRC,
    baseline_src,
    run_driver,
    write_record,
)

#: Baseline-tree switch selecting the legacy data plane.
LEGACY = {"REPRO_DATAPLANE_SLOWPATH": "1"}


def _spec(args) -> dict:
    """The ``cluster`` driver spec of the command line's configuration."""
    return {
        "workload": "cluster",
        "system": args.system,
        "harvest_base": args.harvest_base,
        "sim": {
            "seed": args.seed,
            "accesses_per_segment": args.accesses,
            "warmup_ms": args.warmup_ms,
        },
        "cluster": {
            "servers": args.servers,
            "requests": args.requests,
            "epochs": args.epochs,
            "epoch_ms": args.epoch_ms,
            "warmup_ms": args.warmup_ms,
            "routing": args.routing,
            "harvest_max_cores": args.harvest_max,
        },
    }


def _sample_points(system, sim, cfg):
    """Representative sweep points: one per server, as epoch 0 builds them
    at nominal load."""
    base = system.cluster.harvest_vm_base_cores
    return _epoch_points(system, sim, cfg, 0, [base] * cfg.servers,
                         [None] * cfg.servers)


def _keying_bench(points, min_seconds=0.3):
    """keys/second for legacy full-payload vs split-key hashing."""
    cache = ResultCache(root="/nonexistent")

    def run(fn):
        clear_fragment_memo()
        total, elapsed = 0, 0.0
        while elapsed < min_seconds:
            t0 = time.perf_counter()
            for p in points:
                fn(p)
            elapsed += time.perf_counter() - t0
            total += len(points)
        return total / elapsed

    legacy = run(lambda p: cache.key(p.payload()))
    split = run(lambda p: cache.key_json(p.payload_json()))
    # The two paths must agree on every key before their speeds mean a thing.
    for p in points:
        assert cache.key(p.payload()) == cache.key_json(p.payload_json())
    return {
        "points": len(points),
        "legacy_keys_per_s": round(legacy, 1),
        "split_keys_per_s": round(split, 1),
        "speedup": round(split / legacy, 2),
    }


def _timed_run(src, spec, workers, cache_dir, env=None, progress=False,
               warmups=0):
    """One cluster run of ``spec`` from the tree ``src``, after
    ``warmups`` untimed ones in the same process; returns (wall_s,
    digest, cache counters)."""
    record = run_driver(
        src,
        {**spec, "workers": workers, "cache_dir": cache_dir,
         "progress": progress, "warmups": warmups},
        env,
    )
    return record["wall_s"], record["digest"], record["cache"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--servers", type=int, default=128)
    parser.add_argument("--requests", type=int, default=9_000,
                        help="total routed requests (kept modest so the "
                             "routing stage, which both paths share, does "
                             "not drown the data plane being measured)")
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--epoch-ms", type=float, default=20.0)
    parser.add_argument("--warmup-ms", type=float, default=5.0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--routing", choices=sorted(ROUTING_POLICY_NAMES),
                        default="p2c")
    parser.add_argument("--system", default=SystemKind.HARDHARVEST_BLOCK.value,
                        choices=[k.value for k in SystemKind])
    parser.add_argument("--accesses", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--harvest-base", type=int, default=2)
    parser.add_argument("--harvest-max", type=int, default=4)
    parser.add_argument("--warm-rounds", type=int, default=3,
                        help="warm re-runs per mode; best (min) is reported")
    parser.add_argument("--min-warm-speedup", type=float, default=3.0,
                        help="required warm legacy/fast wall ratio (0 skips)")
    parser.add_argument("--min-compression", type=float, default=4.0,
                        help="required v1/v2 disk-bytes ratio (0 skips)")
    parser.add_argument("--out", default=None,
                        help="output path (default "
                             "bench_results/BENCH_dataplane.json)")
    args = parser.parse_args(argv)

    spec = _spec(args)
    system, sim, cfg = build_cluster(spec)

    def progress(message: str) -> None:
        print(f"[{time.strftime('%H:%M:%S')}] {message}", flush=True)

    progress(f"keying microbench over {cfg.servers} point(s)")
    keying = _keying_bench(_sample_points(system, sim, cfg))
    progress(
        f"keying: legacy {keying['legacy_keys_per_s']:.0f}/s, "
        f"split {keying['split_keys_per_s']:.0f}/s "
        f"({keying['speedup']:.1f}x)"
    )

    with baseline_src() as base, \
            tempfile.TemporaryDirectory(prefix="dataplane_bench.") as work:
        dir_v1 = os.path.join(work, "cache_v1")
        dir_v2 = os.path.join(work, "cache_v2")
        digests = {}

        # Cold runs populate each directory in its native format.
        progress("cold run: legacy data plane (v1 entries)")
        cold_legacy, digests["cold_legacy"], _ = _timed_run(
            base, spec, args.workers, dir_v1, LEGACY, progress=True
        )
        progress("cold run: current tree (v2 entries)")
        cold_fast, digests["cold_fast"], _ = _timed_run(
            HEAD_SRC, spec, args.workers, dir_v2, progress=True
        )

        # Warm re-runs: pure data plane.  Each is timed after one untimed
        # warm re-run in the same process (fresh cache instance per run),
        # as a re-run inside one long-lived process would be.
        warm_legacy, warm_fast = [], []
        warm_stats = None
        for rnd in range(max(1, args.warm_rounds)):
            progress(f"warm round {rnd}: legacy then current")
            t, digests["warm_legacy"], _ = _timed_run(
                base, spec, args.workers, dir_v1, LEGACY, warmups=1
            )
            warm_legacy.append(t)
            t, digests["warm_fast"], warm_stats = _timed_run(
                HEAD_SRC, spec, args.workers, dir_v2, warmups=1
            )
            warm_fast.append(t)
        disk_v1 = ResultCache(root=dir_v1).disk_stats()
        disk_v2 = ResultCache(root=dir_v2).disk_stats()
        # And the current tree over the *v1* directory: its version salts
        # every key, so it serves none of the legacy entries and
        # recomputes its own digest (adding its v2 entries beside them).
        progress("cold run: current tree over the legacy v1 directory")
        _, digests["fast_over_v1"], over_v1_stats = _timed_run(
            HEAD_SRC, spec, args.workers, dir_v1
        )

        # Scaled-down worker-count cross-check (cold at 1 and N workers).
        small = {**spec, "cluster": {
            **spec["cluster"], "servers": 5, "requests": 2000, "epochs": 2,
            "epoch_ms": 20.0, "warmup_ms": 4.0,
        }}
        progress("cross-check: scaled-down cold runs at workers=1 and "
                 f"workers={max(2, args.workers)}")
        _, w1, _ = _timed_run(HEAD_SRC, small, 1, os.path.join(work, "x1"))
        _, wn, _ = _timed_run(
            HEAD_SRC, small, max(2, args.workers), os.path.join(work, "xN")
        )
        _, w1_legacy, _ = _timed_run(
            base, small, 1, os.path.join(work, "x1v1"), LEGACY
        )
    cross = {"workers1": w1, "workersN": wn, "workers1_legacy": w1_legacy,
             "identical": len({w1, wn, w1_legacy}) == 1}

    digest_checks = {
        "legacy_cold_eq_warm": digests["cold_legacy"] == digests["warm_legacy"],
        "fast_cold_eq_warm": digests["cold_fast"] == digests["warm_fast"],
        "fast_over_v1_eq_cold": digests["fast_over_v1"] == digests["cold_fast"],
    }
    warm_speedup = min(warm_legacy) / min(warm_fast)
    compression = (
        disk_v1["bytes"] / disk_v2["bytes"] if disk_v2["bytes"] else 0.0
    )
    record = {
        "benchmark": "dataplane",
        "version": repro.__version__,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "baseline_commit": BASELINE_COMMIT,
        "system": system.name,
        "servers": cfg.servers,
        "epochs": cfg.epochs,
        "epoch_ms": cfg.epoch_ms,
        "requests": args.requests,
        "routing": cfg.routing.value,
        "accesses_per_segment": sim.accesses_per_segment,
        "workers": args.workers,
        "keying": keying,
        "cold_legacy_s": round(cold_legacy, 3),
        "cold_fast_s": round(cold_fast, 3),
        "cold_speedup": round(cold_legacy / cold_fast, 2),
        "warm_legacy_s": round(min(warm_legacy), 3),
        "warm_fast_s": round(min(warm_fast), 3),
        "warm_speedup": round(warm_speedup, 2),
        "warm_hit_rate": warm_stats["hit_rate"],
        "over_v1_hits": over_v1_stats["hits"],
        "disk_v1_bytes": disk_v1["bytes"],
        "disk_v2_bytes": disk_v2["bytes"],
        "disk_entries": disk_v2["entries"],
        "disk_by_format": {"v1": disk_v1["by_format"],
                           "v2": disk_v2["by_format"]},
        "compression_ratio": round(compression, 2),
        "digest": digests["cold_fast"],
        "legacy_digest": digests["cold_legacy"],
        "digests": digests,
        "digest_checks": digest_checks,
        "cross_check": cross,
        "gates": {
            "min_warm_speedup": args.min_warm_speedup,
            "min_compression": args.min_compression,
        },
    }

    failures = []
    for check, held in digest_checks.items():
        if not held:
            failures.append(f"digest check {check} failed: {digests}")
    if not cross["identical"]:
        failures.append(f"worker-count cross-check diverged: {cross}")
    if warm_stats["hit_rate"] < 1.0:
        failures.append(f"warm fast run missed the cache: {warm_stats}")
    if over_v1_stats["hits"]:
        failures.append(
            f"current tree served legacy v1 entries: {over_v1_stats}"
        )
    if args.min_warm_speedup and warm_speedup < args.min_warm_speedup:
        failures.append(
            f"warm speedup {warm_speedup:.2f}x < {args.min_warm_speedup}x"
        )
    if args.min_compression and compression < args.min_compression:
        failures.append(
            f"compression {compression:.2f}x < {args.min_compression}x"
        )
    record["ok"] = not failures

    write_record(record, "BENCH_dataplane.json", args.out)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
