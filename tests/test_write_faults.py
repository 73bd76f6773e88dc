"""The write path fails at its k-th call, for every k.

Every store writes through one seam, :func:`repro.core.ioutil.write_bytes`.
Each scenario here counts the writes of a clean run, then replays the
scenario in a fresh directory once per k, with the k-th write failing in
one of three ways:

* ``enospc`` — the disk is full before a byte is written;
* ``short`` — part of the bytes reach the temp file, then the disk is
  full (the temp file is removed, as ``write_bytes`` does on any error);
* ``death`` — the process dies between the write and the rename: the
  temp file stays, nothing is renamed or cleaned up, and the run is
  abandoned (every later write of that run dies too).

After each failure nothing read or served may differ from the clean
run: a result-cache entry, a checkpoint replay, a served job result.
Fresh instances over the same directory then reach the clean run's
digest, and no leftover temp file is ever read as an entry, a record or
a checkpoint.

A result-cache put or a checkpoint save that fails with ``OSError``
(``enospc``, ``short``) is skipped and counted: the run still returns
the clean digest, and a service job still ends ``done`` and serves the
clean result.
"""

import errno
import os
import re
import tempfile
import threading
import time

import pytest

from repro.cluster_scale import CheckpointStore, cluster_run_key
from repro.cluster_scale.runner import run_cluster_scale
from repro.core import ioutil
from repro.core.export import sweep_results_digest
from repro.parallel.cache import ResultCache
from repro.parallel.runner import run_sweep
from repro.service import ServiceClient, ServiceError, start_in_thread
from repro.service.jobs import JobStore
from repro.service.spec import parse_job_request
from repro.workloads.batch import BATCH_JOBS

TINY_SIM = {"horizon_ms": 6.0, "warmup_ms": 1.0, "accesses_per_segment": 2}
SWEEP = {"kind": "sweep", "systems": "NoHarvest", "seeds": "0..1",
         "simulation": TINY_SIM}
CLUSTER = {"kind": "cluster", "system": "NoHarvest",
           "cluster": {"servers": 2, "requests": 200, "epochs": 2},
           "simulation": TINY_SIM}
MODES = ("enospc", "short", "death")
REAL_WRITE = ioutil.write_bytes


class Died(BaseException):
    """The process died in a write (a BaseException: nothing handles it)."""


class FaultyDisk:
    """Stands in for ``ioutil.write_bytes``; call ``fail_at`` fails."""

    def __init__(self, fail_at=None, mode=None):
        self.fail_at = fail_at
        self.mode = mode
        self.calls = 0
        self.paths = []
        self.dead = False
        self._lock = threading.Lock()

    def __call__(self, path, data):
        with self._lock:
            if self.dead:
                raise Died(path)
            self.calls += 1
            self.paths.append(path)
            if self.calls != self.fail_at:
                return REAL_WRITE(path, data)
            if self.mode == "enospc":
                raise OSError(errno.ENOSPC, "No space left on device", path)
            # As write_bytes does: else the first write into a new
            # directory fails at mkstemp, neither short nor dying.
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
            )
            with os.fdopen(fd, "wb") as fh:
                fh.write(data if self.mode == "death" else data[: len(data) // 2])
            if self.mode == "short":
                os.unlink(tmp)
                raise OSError(errno.ENOSPC, "No space left on device", path)
            self.dead = True
            raise Died(path)


@pytest.fixture()
def disk(monkeypatch):
    """Install a FaultyDisk: ``disk(k, mode)``; ``disk()`` counts writes.
    Each call replaces the previous disk."""
    previous = threading.excepthook

    def hook(args):  # a death ends a service thread quietly
        if not issubclass(args.exc_type, Died):
            previous(args)

    monkeypatch.setattr(threading, "excepthook", hook)

    def install(fail_at=None, mode=None):
        faulty = FaultyDisk(fail_at, mode)
        monkeypatch.setattr(ioutil, "write_bytes", faulty)
        return faulty

    yield install
    monkeypatch.setattr(ioutil, "write_bytes", REAL_WRITE)


def _cases(writes):
    return [(k, mode) for mode in MODES for k in range(1, writes + 1)]


def _skipped_put(path, mode):
    """True if failing this write is a skipped cache put: an ``OSError``
    (not a death) at a result-cache entry, ``<root>/<key[:2]>/<key>.json``."""
    shard = os.path.basename(os.path.dirname(path))
    return mode != "death" and re.fullmatch("[0-9a-f]{2}", shard) is not None


def _entries(root):
    """Every cache entry on disk: ``{key: result}`` as ``get`` serves it."""
    cache = ResultCache(root=root)
    keys = [os.path.basename(path)[: -len(".json")]
            for path in cache._entry_paths()]
    return {key: cache.get(key) for key in keys}


def _assert_no_temp_is_read(root):
    temps = [os.path.join(d, n) for d, _, names in os.walk(root)
             for n in names if n.endswith(".tmp")]
    listed = set(ResultCache(root=root)._entry_paths())
    listed |= {JobStore(root).job_path(i) for i in JobStore(root).job_ids()}
    assert not listed & set(temps)
    assert all(not p.endswith(".tmp") for p in listed)


# ---------------------------------------------------------------------------
# A two-point sweep with a cache.
# ---------------------------------------------------------------------------
def _sweep(root):
    """The sweep's digest and its cache's counters."""
    cache = ResultCache(root=root)
    outcome = run_sweep(parse_job_request(SWEEP).points(), workers=1,
                        cache=cache)
    return sweep_results_digest(outcome.results), cache.stats


def test_sweep_survives_a_failed_kth_write(tmp_path, disk):
    clean_root = str(tmp_path / "clean")
    counter = disk()
    clean, _ = _sweep(clean_root)
    disk(None)
    assert counter.calls == 2
    clean_entries = _entries(clean_root)

    for k, mode in _cases(counter.calls):
        root = str(tmp_path / f"{mode}-{k}")
        disk(k, mode)
        if _skipped_put(counter.paths[k - 1], mode):
            digest, stats = _sweep(root)
            assert digest == clean, (k, mode)
            assert (stats.stores, stats.store_failures) == (1, 1), (k, mode)
        else:
            with pytest.raises(Died):
                _sweep(root)
        disk(None)
        for key, result in _entries(root).items():
            assert result == clean_entries[key], (k, mode)
        _assert_no_temp_is_read(root)
        assert _sweep(root)[0] == clean, (k, mode)
        assert _entries(root) == clean_entries, (k, mode)


# ---------------------------------------------------------------------------
# A checkpointed cluster run: 2 servers x 2 epochs.
# ---------------------------------------------------------------------------
def _cluster(root):
    request = parse_job_request(CLUSTER)
    system = request.cluster_system()
    store = CheckpointStore(
        root=os.path.join(root, "checkpoints"),
        run_key=cluster_run_key(system, request.sim, request.cluster,
                                list(BATCH_JOBS)),
        warn=lambda message: None,
    )
    cache = ResultCache(root=root)
    result = run_cluster_scale(system, sim=request.sim, cfg=request.cluster,
                               workers=1, cache=cache, checkpoint=store)
    return result, store, cache.stats


def test_cluster_run_survives_a_failed_kth_write(tmp_path, disk):
    clean_root = str(tmp_path / "clean")
    counter = disk()
    clean, clean_store, _ = _cluster(clean_root)
    disk(None)
    assert counter.calls == 4 + 2  # a cache put per point, a checkpoint per epoch
    epochs = len(clean.epochs)
    clean_checkpoints = [clean_store.load_epoch(e) for e in range(epochs)]
    clean_entries = _entries(clean_root)

    for k, mode in _cases(counter.calls):
        root = str(tmp_path / f"{mode}-{k}")
        disk(k, mode)
        if mode == "death":
            with pytest.raises(Died):
                _cluster(root)
        else:
            result, store, stats = _cluster(root)
            assert result.digest() == clean.digest(), (k, mode)
            put = _skipped_put(counter.paths[k - 1], mode)
            assert (stats.stores, stats.store_failures) == (
                (3, 1) if put else (4, 0)), (k, mode)
            assert store.save_failures == (0 if put else 1), (k, mode)
        disk(None)
        for key, result in _entries(root).items():
            assert result == clean_entries[key], (k, mode)
        store = CheckpointStore(root=os.path.join(root, "checkpoints"),
                                run_key=clean_store.run_key)
        entries, _ = store.load(epochs)
        assert entries == clean_checkpoints[: len(entries)], (k, mode)
        _assert_no_temp_is_read(root)
        resumed, _, _ = _cluster(root)
        assert resumed.resumed_epochs == len(entries), (k, mode)
        assert resumed.digest() == clean.digest(), (k, mode)


# ---------------------------------------------------------------------------
# A service job, submitted, run and fetched over HTTP.
# ---------------------------------------------------------------------------
def _served(payload):
    """The parts of a served sweep result that are a function of the job
    (the rest are timings and cache provenance)."""
    return payload["digest"], payload["results"]


def _settle(client, job_id, faulty, timeout_s=60.0):
    """Poll until the job ends or the process 'died'; the last status."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = client.status(job_id)
        if status["state"] in ("done", "failed") or faulty.dead:
            return status
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} did not settle")


def _fetch(client):
    job_id = client.submit(SWEEP)["job_id"]
    client.wait(job_id, timeout_s=60, poll_s=0.02)
    return _served(client.result(job_id))


def test_service_job_survives_a_failed_kth_write(tmp_path, disk):
    clean_root = str(tmp_path / "clean")
    counter = disk()
    handle = start_in_thread(cache_dir=clean_root, service_workers=1)
    try:
        clean = _fetch(ServiceClient(port=handle.port))
    finally:
        handle.stop()
    disk(None)
    # The queued record, a cache put per point, the result, the done record.
    assert counter.calls == 1 + 2 + 1 + 1

    for k, mode in _cases(counter.calls):
        root = str(tmp_path / f"{mode}-{k}")
        faulty = disk(k, mode)
        handle = start_in_thread(cache_dir=root, service_workers=1)
        client = ServiceClient(port=handle.port)
        try:
            try:
                job_id = client.submit(SWEEP)["job_id"]
            except (ServiceError, OSError):
                job_id = None  # the submission's own write failed
                assert client.healthz()["queue_depth"] == 0 or faulty.dead
            if job_id is not None:
                status = _settle(client, job_id, faulty)
                if _skipped_put(counter.paths[k - 1], mode):
                    assert status["state"] == "done", (k, mode)
                    assert "repro_cache_store_failures_total 1" in (
                        client.metrics()), (k, mode)
                if status["state"] == "done":
                    assert _served(client.result(job_id)) == clean, (k, mode)
                elif status["state"] == "failed":
                    code, _ = client._request("GET", f"/jobs/{job_id}/result")
                    assert code == 409, (k, mode)
        finally:
            handle.stop(grace_s=0 if faulty.dead else 10)
        disk(None)
        _assert_no_temp_is_read(root)

        fresh = start_in_thread(cache_dir=root, service_workers=1)
        try:
            assert _fetch(ServiceClient(port=fresh.port)) == clean, (k, mode)
        finally:
            fresh.stop()
