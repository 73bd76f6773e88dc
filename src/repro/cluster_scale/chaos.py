"""Chaos soak: SIGKILL a fault-plan cluster run mid-flight, resume it,
and prove the recovered digest is bit-identical to an uninterrupted run.

The harness behind ``python -m repro chaos`` and
``benchmarks/chaos_soak.py``:

1. run the configured fault-plan cluster simulation **uninterrupted**,
   in-process, and record its digest and per-epoch goodput/TTR curve;
2. launch the identical run as a ``python -m repro cluster`` subprocess
   with checkpointing on, poll the checkpoint directory, and SIGKILL the
   orchestrator the moment enough epoch barriers have been persisted —
   the most brutal failure a run can suffer (no atexit, no flush);
3. resume from the surviving checkpoints in-process and compare digests.

The two digests being equal at any worker count is the resilience layer's
end-to-end acceptance criterion; CI's ``chaos-smoke`` job gates on the
benchmark record ``benchmarks/chaos_soak.py`` writes from this outcome.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
import subprocess
import sys
import time
from typing import Dict, Optional

import repro
from repro.cluster_scale.resilience import CheckpointStore, cluster_run_key
from repro.service.executor import run_job
from repro.service.spec import JobValidationError, parse_job_request
from repro.workloads.batch import BATCH_JOBS


@contextlib.contextmanager
def _graceful_signals(say):
    """Convert SIGTERM/SIGINT into :class:`SystemExit` for the duration.

    The soak owns a victim subprocess and (usually) a temp checkpoint
    directory; a raised SystemExit unwinds through the ``try/finally``
    blocks that kill the victim and remove the directory, where a bare
    signal death would orphan both.  Original handlers are restored on
    exit so the surrounding process (pytest, a shell) is unaffected.
    """

    def _handler(signum, _frame):
        say(f"received {signal.Signals(signum).name}; cleaning up")
        raise SystemExit(128 + signum)

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except ValueError:  # not the main thread: run unguarded
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _count_checkpoints(store: CheckpointStore, epochs: int) -> int:
    """Epoch files present on disk (existence only — validation is the
    resuming loader's job)."""
    n = 0
    for epoch in range(epochs):
        if os.path.exists(store.path(epoch)):
            n += 1
        else:
            break
    return n


def run_chaos_soak(
    system_name: str = "HardHarvest-Block",
    servers: int = 3,
    requests: int = 2400,
    epochs: int = 4,
    epoch_ms: float = 25.0,
    routing: str = "p2c",
    plan_name: str = "crash-storm",
    seed: int = 7,
    accesses: int = 2,
    workers: int = 1,
    checkpoint_root: Optional[str] = None,
    kill_after_epochs: int = 1,
    poll_s: float = 0.05,
    kill_timeout_s: float = 900.0,
    progress=None,
) -> Dict:
    """One full SIGKILL-and-resume soak; returns its outcome.

    ``kill_after_epochs`` is how many epoch checkpoints must exist before
    the subprocess is killed.  On a fast machine the subprocess can
    finish before the poller catches it — the record then notes
    ``killed: false`` and the resume degenerates to a full checkpoint
    replay, which still must reproduce the digest.

    SIGTERM/SIGINT during the soak unwind as :class:`SystemExit` (see
    :func:`_graceful_signals`): the victim subprocess is killed and an
    owned temp checkpoint directory is removed on the way out.
    """
    import shutil
    import tempfile

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    owns_root = checkpoint_root is None
    if owns_root:
        checkpoint_root = tempfile.mkdtemp(prefix="repro_chaos_")
    try:
        with _graceful_signals(say):
            return _run_soak(
                system_name, servers, requests, epochs, epoch_ms, routing,
                plan_name, seed, accesses, workers, checkpoint_root,
                kill_after_epochs, poll_s, kill_timeout_s, say,
            )
    finally:
        # However the soak ends — normal return, a raised soak failure,
        # or a signal unwinding — a temp directory never outlives it.
        if owns_root:
            shutil.rmtree(checkpoint_root, ignore_errors=True)


def _run_soak(
    system_name: str,
    servers: int,
    requests: int,
    epochs: int,
    epoch_ms: float,
    routing: str,
    plan_name: str,
    seed: int,
    accesses: int,
    workers: int,
    checkpoint_root: str,
    kill_after_epochs: int,
    poll_s: float,
    kill_timeout_s: float,
    say,
) -> Dict:
    if not 1 <= kill_after_epochs < epochs:
        raise JobValidationError(
            "kill_after_epochs",
            f"kill_after_epochs must be in [1, {epochs - 1}], got "
            f"{kill_after_epochs}",
        )
    # The job body the victim's command line below parses to, so the
    # in-process runs and the victim share one checkpoint run key.
    request = dataclasses.replace(parse_job_request({
        "kind": "cluster",
        "system": system_name,
        "cluster": {"servers": servers, "requests": requests,
                    "epochs": epochs, "routing": routing},
        "fault_plan": plan_name,
        "simulation": {"horizon_ms": epoch_ms, "seed": seed,
                       "accesses_per_segment": accesses},
    }), workers=workers)
    run_key = cluster_run_key(
        request.cluster_system(), request.sim, request.cluster, list(BATCH_JOBS)
    )

    say(f"uninterrupted reference run ({epochs} epochs, plan {plan_name})")
    t0 = time.monotonic()
    _, reference_digest = run_job(request)
    reference_wall = time.monotonic() - t0

    store = CheckpointStore(root=checkpoint_root, run_key=run_key)

    # The victim: an identical run via the real CLI, checkpointing on.
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [
        sys.executable, "-m", "repro", "cluster",
        "--system", system_name,
        "--servers", str(servers),
        "--requests", str(requests),
        "--epochs", str(epochs),
        "--horizon-ms", str(epoch_ms),
        "--routing", routing,
        "--fault-plan", plan_name,
        "--seed", str(seed),
        "--accesses", str(accesses),
        "--workers", str(workers),
        "--checkpoint",
        "--checkpoint-dir", checkpoint_root,
        "--no-cache",
    ]
    say(f"launching victim subprocess (SIGKILL after "
        f"{kill_after_epochs} checkpointed epoch(s))")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    killed = False
    try:
        while proc.poll() is None:
            if _count_checkpoints(store, epochs) >= kill_after_epochs:
                proc.kill()  # SIGKILL: no cleanup, no flush
                proc.wait()
                killed = True
                break
            if time.monotonic() - t0 > kill_timeout_s:
                proc.kill()
                proc.wait()
                raise RuntimeError(
                    f"chaos victim produced no checkpoint within "
                    f"{kill_timeout_s}s"
                )
            time.sleep(poll_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    victim_wall = time.monotonic() - t0
    checkpoints_on_disk = _count_checkpoints(store, epochs)
    say(f"victim {'killed' if killed else 'finished unkilled'} with "
        f"{checkpoints_on_disk} checkpoint(s) on disk")

    say("resuming from surviving checkpoints")
    t0 = time.monotonic()
    resumed, resumed_digest = run_job(
        request, progress=say,
        checkpoint=CheckpointStore(root=checkpoint_root, run_key=run_key),
    )
    resume_wall = time.monotonic() - t0

    curve = [
        {
            "epoch": entry["epoch"],
            "goodput": round(entry["goodput"], 6),
            "retry_amplification": round(entry["retry_amplification"], 6),
            "slo_violation_rate": round(entry["slo_violation_rate"], 6),
            "recovery_ms_max": round(entry["recovery_ms_max"], 3),
            "offered": entry["offered"],
            "failed": entry["failed"],
        }
        for entry in resumed.resilience_curve()
    ]
    return {
        "config": {
            "system": system_name,
            "servers": servers,
            "requests": requests,
            "epochs": epochs,
            "epoch_ms": epoch_ms,
            "routing": routing,
            "fault_plan": plan_name,
            "seed": seed,
            "accesses": accesses,
            "workers": workers,
            "kill_after_epochs": kill_after_epochs,
        },
        "run_key": run_key,
        "uninterrupted_digest": reference_digest,
        "resumed_digest": resumed_digest,
        "digests_equal": resumed_digest == reference_digest,
        "killed": killed,
        "resumed_from_epoch": resumed.resumed_epochs,
        "checkpoints_on_disk": checkpoints_on_disk,
        "resilience_curve": curve,
        "walls": {
            "uninterrupted_s": round(reference_wall, 3),
            "victim_s": round(victim_wall, 3),
            "resume_s": round(resume_wall, 3),
        },
    }
