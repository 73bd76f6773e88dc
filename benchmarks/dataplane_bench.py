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
* **Digest gates** — each tree's cold and warm runs carry one digest, the
  current tree serves none of the legacy v1 entries (it never reads v1,
  and its version salts every key) and recomputes its own digest over
  them, and a scaled-down cross-check (workers=1 and workers=N of the
  current tree, workers=1 of the legacy one) agrees.  The two trees'
  full-size digests may differ: since 1.6.0 a server with no Primary
  arrivals ends at its horizon, where the baseline ran it to the safety
  cap, and the small config has no such server.  A speedup that changed
  a tree's own digest is a bug, not a result.

Needs the baseline commit in the local clone (full history).

Usage::

    PYTHONPATH=src python benchmarks/dataplane_bench.py \
        --servers 128 --requests 9000 --workers 4

CI runs a scaled-down configuration; the defaults match the nightly
record.  The record is ``bench_results/BENCH_dataplane.json``; the
script exits 1 when a gate fails.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time

from repro.cluster_scale.runner import _epoch_points
from repro.parallel.cache import ResultCache
from repro.parallel.sweep import clear_fragment_memo

from _driver import build_cluster
from _timing import (
    HEAD_SRC,
    add_cluster_args,
    baseline_src,
    cluster_spec,
    gate,
    run_driver,
    write_record,
)

#: Baseline-tree switch selecting the legacy data plane.
LEGACY = {"REPRO_DATAPLANE_SLOWPATH": "1"}


def _keying_bench(system, sim, cfg, min_seconds=0.3):
    """keys/second for legacy full-payload vs split-key hashing over one
    point per server, as epoch 0 builds them at nominal load."""
    base = system.cluster.harvest_vm_base_cores
    points = _epoch_points(system, sim, cfg, 0, [base] * cfg.servers,
                           [None] * cfg.servers)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # Few requests, so the routing stage, which both paths share, does
    # not drown the data plane being measured.
    add_cluster_args(parser, requests=9_000, epoch_ms=20.0, warmup_ms=5.0,
                     accesses=2)
    parser.add_argument("--warm-rounds", type=int, default=3,
                        help="warm re-runs per mode; best (min) is reported")
    parser.add_argument("--min-warm-speedup", type=float, default=3.0,
                        help="floor of the warm legacy/fast wall ratio")
    parser.add_argument("--min-compression", type=float, default=4.0,
                        help="floor of the v1/v2 disk-bytes ratio")
    parser.add_argument("--out", default=None,
                        help="output path (default "
                             "bench_results/BENCH_dataplane.json)")
    args = parser.parse_args(argv)

    spec = cluster_spec(args)

    def progress(message: str) -> None:
        print(f"[{time.strftime('%H:%M:%S')}] {message}", flush=True)

    progress(f"keying microbench over {args.servers} point(s)")
    keying = _keying_bench(*build_cluster(spec))

    def run(src, cache_dir, env=None, warmups=0, workers=args.workers,
            config=spec):
        """One timed cluster run; returns (wall_s, digest, cache counters)."""
        record = run_driver(src, {**config, "workers": workers,
                                  "cache_dir": cache_dir,
                                  "progress": warmups == 0,
                                  "warmups": warmups}, env)
        return record["wall_s"], record["digest"], record["cache"]

    with baseline_src() as base, \
            tempfile.TemporaryDirectory(prefix="dataplane_bench.") as work:
        dir_v1 = os.path.join(work, "cache_v1")
        dir_v2 = os.path.join(work, "cache_v2")
        digests = {}

        # Cold runs populate each directory in its native format.
        progress("cold run: legacy data plane (v1 entries)")
        cold_legacy, digests["cold_legacy"], _ = run(base, dir_v1, LEGACY)
        progress("cold run: current tree (v2 entries)")
        cold_fast, digests["cold_fast"], _ = run(HEAD_SRC, dir_v2)

        # Warm re-runs: pure data plane.  Each is timed after one untimed
        # warm re-run in the same process (fresh cache instance per run),
        # as a re-run inside one long-lived process would be.
        warm_legacy, warm_fast = [], []
        for rnd in range(max(1, args.warm_rounds)):
            progress(f"warm round {rnd}: legacy then current")
            t, digests["warm_legacy"], _ = run(base, dir_v1, LEGACY, warmups=1)
            warm_legacy.append(t)
            t, digests["warm_fast"], warm_stats = run(HEAD_SRC, dir_v2,
                                                      warmups=1)
            warm_fast.append(t)
        disk_v1 = ResultCache(root=dir_v1).disk_stats()
        disk_v2 = ResultCache(root=dir_v2).disk_stats()
        # And the current tree over the *v1* directory: it serves none of
        # the legacy entries and recomputes its own digest (adding its
        # v2 entries beside them).
        progress("cold run: current tree over the legacy v1 directory")
        _, digests["fast_over_v1"], over_v1_stats = run(HEAD_SRC, dir_v1)

        # Scaled-down worker-count cross-check (cold at 1 and N workers),
        # sharded unevenly on purpose (5 servers) so it exercises the merge.
        small = {**spec, "cluster": {
            **spec["cluster"], "servers": 5, "requests": 2000, "epochs": 2,
            "epoch_ms": 20.0, "warmup_ms": 4.0,
        }}
        workers_n = max(2, args.workers)
        progress("cross-check: scaled-down cold runs at workers=1 and "
                 f"workers={workers_n}")
        cross = {
            "workers1": run(HEAD_SRC, os.path.join(work, "x1"), workers=1,
                            config=small)[1],
            "workersN": run(HEAD_SRC, os.path.join(work, "xN"),
                            workers=workers_n, config=small)[1],
            "workers1_legacy": run(base, os.path.join(work, "x1v1"), LEGACY,
                                   workers=1, config=small)[1],
        }

    warm_speedup = min(warm_legacy) / min(warm_fast)
    compression = disk_v1["bytes"] / disk_v2["bytes"] if disk_v2["bytes"] else 0.0
    return write_record(
        "dataplane",
        config={**spec, "workers": args.workers,
                "warm_rounds": args.warm_rounds},
        end_to_end={
            "cold_legacy_s": round(cold_legacy, 3),
            "cold_fast_s": round(cold_fast, 3),
            "cold_speedup": round(cold_legacy / cold_fast, 2),
            "warm_legacy_s": round(min(warm_legacy), 3),
            "warm_fast_s": round(min(warm_fast), 3),
            "warm_speedup": round(warm_speedup, 2),
            "disk_v1_bytes": disk_v1["bytes"],
            "disk_v2_bytes": disk_v2["bytes"],
            "compression_ratio": round(compression, 2),
        },
        digest=digests["cold_fast"],
        gates={
            "legacy_cold_eq_warm": gate(
                digests["cold_legacy"] == digests["warm_legacy"]),
            "fast_cold_eq_warm": gate(
                digests["cold_fast"] == digests["warm_fast"]),
            "fast_over_v1_eq_cold": gate(
                digests["fast_over_v1"] == digests["cold_fast"]),
            "over_v1_serves_none": gate(over_v1_stats["hits"] == 0),
            "cross_check_identical": gate(len(set(cross.values())) == 1),
            "warm_hit_rate": gate(warm_stats["hit_rate"], 1.0),
            "warm_speedup": gate(warm_speedup, args.min_warm_speedup),
            "compression": gate(compression, args.min_compression),
        },
        detail={
            "keying": keying,
            "digests": digests,
            "cross_check": cross,
            "disk_entries": disk_v2["entries"],
            "disk_by_format": {"v1": disk_v1["by_format"],
                               "v2": disk_v2["by_format"]},
        },
        out=args.out,
        baseline=True,
    )


if __name__ == "__main__":
    raise SystemExit(main())
