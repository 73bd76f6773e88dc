"""Who owns the pool processes, and that none outlives its owner.

A :class:`~repro.parallel.runner.WorkerPool` keeps its workers across
batches: one pool serves a ``run_sweep`` call's retry rounds, a
``run_cluster_scale`` run's epochs and a service slot's jobs.  The tests
count executor constructions with a counting subclass patched into
:mod:`repro.parallel.runner`, and compare
``multiprocessing.active_children()`` before and after each owner ends.

Points that crash, sleep or hang are monkeypatched into
``execute_payload``, which pool workers inherit only under the fork start
method; those tests skip elsewhere.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.parallel.runner as runner_mod
from repro.cluster_scale import ClusterScaleConfig, run_cluster_scale
from repro.config import SimulationConfig, SystemKind
from repro.core.presets import all_systems, build_system
from repro.parallel import ResultCache, SweepError, SweepSpec, WorkerPool, run_sweep
from repro.service import ServiceClient, start_in_thread

TINY = SimulationConfig(horizon_ms=12.0, warmup_ms=2.0, accesses_per_segment=3)
TINY_SIM = {"horizon_ms": 12.0, "warmup_ms": 2.0, "accesses_per_segment": 3}

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="needs fork start method to inherit the monkeypatch",
)


def two_points(seeds=(0, 1)) -> SweepSpec:
    systems = dict(list(all_systems().items())[:1])
    return SweepSpec(systems=systems, seeds=seeds, sim=TINY)


def small_cluster(epochs: int = 2):
    system = build_system(SystemKind.NOHARVEST)
    sim = SimulationConfig(horizon_ms=10.0, warmup_ms=2.0, accesses_per_segment=2)
    cfg = ClusterScaleConfig(servers=2, epochs=epochs, epoch_ms=10.0, warmup_ms=2.0)
    return system, sim, cfg


@pytest.fixture()
def built(monkeypatch):
    """Executors built while the test runs, one entry per construction."""
    count = []
    real = runner_mod.ProcessPoolExecutor

    class Counting(real):
        def __init__(self, *args, **kwargs):
            count.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", Counting)
    return count


@pytest.fixture()
def no_new_children():
    """Fails the test if a child process it started is still alive."""
    before = set(multiprocessing.active_children())
    yield
    assert set(multiprocessing.active_children()) <= before


# ---------------------------------------------------------------------------
# One pool per owner.
# ---------------------------------------------------------------------------
def test_cluster_run_builds_one_pool_for_all_epochs(built, tmp_path):
    system, sim, cfg = small_cluster(epochs=2)
    before = set(multiprocessing.active_children())
    cold = run_cluster_scale(system, sim, cfg, workers=2,
                             cache=ResultCache(root=str(tmp_path)))
    assert built == [2]
    assert set(multiprocessing.active_children()) <= before
    warm = run_cluster_scale(system, sim, cfg, workers=2,
                             cache=ResultCache(root=str(tmp_path)))
    assert built == [2]  # every point a hit: nothing forked
    assert warm.digest() == cold.digest()


@needs_fork
def test_sweep_retry_rounds_reuse_the_pool(built, no_new_children, monkeypatch, tmp_path):
    real = runner_mod.execute_payload

    def fails_once(payload_json):
        marker = tmp_path / f"seed-{json.loads(payload_json)['simulation']['seed']}"
        if not marker.exists():
            marker.write_text("failed once")
            raise RuntimeError("first attempt")
        return real(payload_json)

    monkeypatch.setattr(runner_mod, "execute_payload", fails_once)
    monkeypatch.setattr(runner_mod, "_sleep", lambda s: None)
    out = run_sweep(two_points(), workers=2)
    assert out.retried == 2
    assert built == [2]


def test_a_caller_owned_pool_outlives_the_call(built):
    before = set(multiprocessing.active_children())
    with WorkerPool(2) as pool:
        run_sweep(two_points((0, 1)), workers=2, pool=pool)
        assert set(multiprocessing.active_children()) - before
        run_sweep(two_points((2, 3)), workers=2, pool=pool)
    assert built == [2]
    assert set(multiprocessing.active_children()) <= before
    with pytest.raises(RuntimeError, match="closed"):
        pool.executor()


def test_a_worker_lost_between_batches_is_replaced(built):
    """A pool whose idle worker died is broken; the next batch gets a
    fresh executor instead of failing at submission."""
    before = set(multiprocessing.active_children())
    with WorkerPool(2) as pool:
        run_sweep(two_points((0, 1)), workers=2, pool=pool)
        victim = next(iter(set(multiprocessing.active_children()) - before))
        victim.kill()
        deadline = time.monotonic() + 10
        while not pool._executor._broken:
            assert time.monotonic() < deadline, "pool never noticed the loss"
            time.sleep(0.05)
        out = run_sweep(two_points((2, 3)), workers=2, pool=pool)
    assert len(out.results) == 2 and out.retried == 0
    assert built == [2, 2]


def test_a_pool_of_another_size_is_refused(built):
    system, sim, cfg = small_cluster(epochs=1)
    with WorkerPool(3) as pool:
        with pytest.raises(ValueError, match="3 worker"):
            run_sweep(two_points(), workers=2, pool=pool)
        with pytest.raises(ValueError, match="3 worker"):
            run_cluster_scale(system, sim, cfg, workers=2, pool=pool)
    assert built == []


@needs_fork
def test_hung_point_in_a_cluster_epoch_fails_and_leaves_no_child(
    no_new_children, monkeypatch
):
    real = runner_mod.execute_payload

    def hangs(payload_json):
        if json.loads(payload_json)["server_index"] == 1:
            time.sleep(30.0)
        return real(payload_json)

    monkeypatch.setattr(runner_mod, "execute_payload", hangs)
    monkeypatch.setattr(runner_mod, "_sleep", lambda s: None)
    system, sim, cfg = small_cluster(epochs=2)
    started = time.monotonic()
    with pytest.raises(SweepError, match=r"epoch=0/server=1: chunk of 1 timed out"):
        run_cluster_scale(system, sim, cfg, workers=2, task_timeout=1.0)
    assert time.monotonic() - started < 15.0


# ---------------------------------------------------------------------------
# Service slots.
# ---------------------------------------------------------------------------
def sweep_body(seeds: str, workers: int) -> dict:
    return {"kind": "sweep", "systems": "NoHarvest", "seeds": seeds,
            "workers": workers, "simulation": dict(TINY_SIM)}


def test_a_service_slot_keeps_its_pool_across_jobs(built, no_new_children, tmp_path):
    handle = start_in_thread(cache_dir=str(tmp_path / "cache"), service_workers=1)
    try:
        client = ServiceClient(port=handle.port)
        for seeds in ("0..1", "2..3", "4..5"):
            client.wait(client.submit(sweep_body(seeds, 2))["job_id"], timeout_s=120)
        assert built == [2]
        client.wait(client.submit(sweep_body("6..7", 3))["job_id"], timeout_s=120)
        assert built == [2, 3]
    finally:
        handle.stop()


@needs_fork
def test_shutdown_grace_kills_the_workers_of_a_running_job(monkeypatch, tmp_path):
    def sleeps(payload_json):
        (tmp_path / f"running-{os.getpid()}").write_text("")
        time.sleep(20.0)

    monkeypatch.setattr(runner_mod, "execute_payload", sleeps)
    before = set(multiprocessing.active_children())
    handle = start_in_thread(cache_dir=str(tmp_path / "cache"), service_workers=1)
    try:
        client = ServiceClient(port=handle.port)
        job_id = client.submit(sweep_body("0..1", 2))["job_id"]
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("running-*")):
            assert time.monotonic() < deadline, "no point started"
            time.sleep(0.05)
    finally:
        started = time.monotonic()
        handle.stop(grace_s=0.5)
        stopped_s = time.monotonic() - started
    assert stopped_s < 5.0
    assert set(multiprocessing.active_children()) <= before
    assert handle.service.store.load(job_id).state == "queued"


# ---------------------------------------------------------------------------
# A coordinator killed with SIGKILL leaves no worker behind.
# ---------------------------------------------------------------------------
COORDINATOR = """
import os, sys, time
import repro.parallel.runner as runner
from repro.config import SimulationConfig
from repro.core.presets import all_systems
from repro.parallel import SweepSpec

def sleeps(payload_json):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(60.0)

runner.execute_payload = sleeps
systems = dict(list(all_systems().items())[:1])
sim = SimulationConfig(horizon_ms=12.0, warmup_ms=2.0, accesses_per_segment=3)
runner.run_sweep(SweepSpec(systems=systems, seeds=(0, 1), sim=sim), workers=2)
"""


def _alive(pid: int) -> bool:
    """Running and not a zombie (an orphan's new parent may never reap)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_workers_exit_when_their_coordinator_is_killed(tmp_path):
    package = os.path.dirname(os.path.dirname(runner_mod.__file__))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    proc = subprocess.Popen([sys.executable, "-c", COORDINATOR, str(tmp_path)], env=env)
    pids: list = []
    try:
        deadline = time.monotonic() + 60
        while len(pids) < 2:
            assert time.monotonic() < deadline, "workers did not start"
            assert proc.poll() is None, "coordinator exited early"
            time.sleep(0.05)
            pids = [int(p.name) for p in tmp_path.iterdir()]
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in pids if _alive(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
