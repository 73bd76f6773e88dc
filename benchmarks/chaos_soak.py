"""Chaos soak benchmark: SIGKILL-and-resume a fault-plan cluster run.

Drives :func:`repro.cluster_scale.chaos.run_chaos_soak` at soak scale —
a long cluster run under a composed fault plan whose orchestrator is
SIGKILLed mid-run, resumed from its epoch checkpoints, and required to
reproduce the uninterrupted run's digest bit for bit — and records the
evidence (digests, resume point, per-epoch goodput/time-to-recovery
curve, wall clocks) under ``bench_results/BENCH_chaos_soak.json``.

The record's gates: the resumed digest equals the uninterrupted one,
the resume replayed at least one checkpointed epoch, and the run
reported a per-epoch resilience curve.  Its ``digest`` is the
uninterrupted run's, so ``ci_checks.py digests-equal`` over records
from several worker counts checks that they computed one result.  The
script exits 1 when a gate fails.

Usage::

    PYTHONPATH=src python benchmarks/chaos_soak.py \
        --servers 8 --requests 24000 --epochs 6 --workers 4
"""

from __future__ import annotations

import argparse
import time

from repro.cluster_scale import ROUTING_POLICY_NAMES, cluster_plan_names
from repro.cluster_scale.chaos import run_chaos_soak
from repro.config import SystemKind

from _timing import gate, write_record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--system", default=SystemKind.HARDHARVEST_BLOCK.value,
                        choices=[k.value for k in SystemKind])
    parser.add_argument("--servers", type=int, default=8)
    parser.add_argument("--requests", type=int, default=24_000)
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--epoch-ms", type=float, default=25.0)
    parser.add_argument("--routing", choices=sorted(ROUTING_POLICY_NAMES),
                        default="p2c")
    parser.add_argument("--plan", choices=cluster_plan_names(),
                        default="crash-storm")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--accesses", type=int, default=2)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--kill-after", type=int, default=2,
                        help="checkpointed epochs required before SIGKILL")
    parser.add_argument("--out", default=None,
                        help="output path (default "
                             "bench_results/BENCH_chaos_soak.json)")
    args = parser.parse_args(argv)

    def progress(message: str) -> None:
        print(f"[{time.strftime('%H:%M:%S')}] {message}", flush=True)

    outcome = run_chaos_soak(
        system_name=args.system,
        servers=args.servers,
        requests=args.requests,
        epochs=args.epochs,
        epoch_ms=args.epoch_ms,
        routing=args.routing,
        plan_name=args.plan,
        seed=args.seed,
        accesses=args.accesses,
        workers=args.workers,
        kill_after_epochs=args.kill_after,
        progress=progress,
    )
    if not outcome["killed"]:
        print("note: the victim finished before the SIGKILL landed; the "
              "resume still replayed its checkpoints")
    curve = outcome["resilience_curve"]
    return write_record(
        "chaos_soak",
        config=outcome["config"],
        end_to_end=outcome["walls"],
        digest=outcome["uninterrupted_digest"],
        gates={
            "digests_equal": gate(outcome["digests_equal"]),
            "resumed_from_epoch": gate(outcome["resumed_from_epoch"], 1),
            "resilience_epochs": gate(len(curve), 1),
        },
        detail={
            "run_key": outcome["run_key"],
            "resumed_digest": outcome["resumed_digest"],
            "killed": outcome["killed"],
            "checkpoints_on_disk": outcome["checkpoints_on_disk"],
            "resilience_curve": curve,
        },
        out=args.out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
