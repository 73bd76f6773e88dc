"""Cluster-scale benchmark: 100+ servers, a million routed requests.

Runs one sharded :func:`repro.cluster_scale.run_cluster_scale` pass at
datacenter scale and records the wall clock, request counts, and the
run digest under ``bench_results/BENCH_cluster_scale.json``.  The digest
is the determinism fingerprint: any two hosts (or worker counts) running
the same configuration must record the same value.

An optional ``--cross-check`` pass re-runs a scaled-down copy of the
configuration at ``--workers 1`` and at the benchmark worker count, and
gates the record on their digests being equal, so the record carries its
own evidence that the sharded merge is deterministic.

Usage::

    PYTHONPATH=src python benchmarks/cluster_scale_bench.py \
        --servers 128 --requests 1500000 --workers 4 --routing p2c
"""

from __future__ import annotations

import argparse
import time
from dataclasses import replace

from repro.cluster_scale import run_cluster_scale

from _driver import build_cluster
from _timing import add_cluster_args, cluster_spec, gate, write_record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_cluster_args(parser, requests=1_500_000, epoch_ms=100.0,
                     warmup_ms=10.0, accesses=4)
    parser.add_argument("--cross-check", action="store_true",
                        help="also verify a scaled-down config is "
                             "bit-identical at workers=1 vs --workers")
    parser.add_argument("--out", default=None,
                        help="output path (default "
                             "bench_results/BENCH_cluster_scale.json)")
    args = parser.parse_args(argv)

    spec = cluster_spec(args)
    system, sim, cfg = build_cluster(spec)

    def progress(message: str) -> None:
        print(f"[{time.strftime('%H:%M:%S')}] {message}", flush=True)

    started = time.perf_counter()
    result = run_cluster_scale(
        system, sim, cfg, workers=args.workers, progress=progress
    )
    elapsed = time.perf_counter() - started
    summary = result.summary_dict()
    progress(
        f"done: {summary['requests_arrived']} arrived / "
        f"{summary['requests_measured']} measured in {elapsed:.1f}s"
    )

    gates, detail = {}, {
        "requests_arrived": summary["requests_arrived"],
        "requests_measured": summary["requests_measured"],
        "avg_p99_ms": round(summary["avg_p99_ms"], 4),
        "avg_busy_cores": round(summary["avg_busy_cores"], 3),
        "batch_units_per_s": round(summary["batch_units_per_s"], 1),
        "rebalance_moves": summary["rebalance_moves"],
    }
    if args.cross_check:
        # Small enough to finish in seconds, sharded unevenly on purpose
        # (5 servers over N workers) so the check exercises the merge.
        small = replace(cfg, servers=5, requests=4000, epochs=2,
                        epoch_ms=20.0, warmup_ms=4.0)
        cross = {
            "workers1": run_cluster_scale(system, sim, small, workers=1).digest(),
            "workersN": run_cluster_scale(
                system, sim, small, workers=max(2, args.workers)
            ).digest(),
        }
        gates["cross_check_identical"] = gate(len(set(cross.values())) == 1)
        detail["cross_check"] = cross

    return write_record(
        "cluster_scale",
        config={**spec, "workers": args.workers},
        end_to_end={
            "wall_s": round(elapsed, 1),
            "requests_per_wall_s": round(summary["requests_arrived"] / elapsed, 1),
        },
        digest=result.digest(),
        gates=gates,
        detail=detail,
        out=args.out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
