"""The durable-record primitive (:mod:`repro.core.ioutil`) and what the
stores make of a damaged file or a full disk."""

import errno
import hashlib
import json
import os
import pathlib

import pytest

from repro.cluster_scale import CheckpointStore
from repro.core import ioutil
from repro.service import ServiceClient, start_in_thread
from repro.service.jobs import JobRecord, JobStore

TINY_SIM = {"horizon_ms": 6.0, "warmup_ms": 1.0, "accesses_per_segment": 2}


def sweep_body(seeds="0..1"):
    return {"kind": "sweep", "systems": "NoHarvest", "seeds": seeds,
            "simulation": dict(TINY_SIM)}


def _enospc(*_args):
    raise OSError(errno.ENOSPC, "No space left on device")


# ---------------------------------------------------------------------------
# write_bytes / atomic_open
# ---------------------------------------------------------------------------
def test_write_bytes_replaces_the_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "sub" / "f.json"
    ioutil.write_bytes(str(path), b"old")
    ioutil.write_bytes(str(path), b"new")
    assert path.read_bytes() == b"new"
    assert os.listdir(path.parent) == ["f.json"]


def test_a_failed_write_leaves_the_old_file_and_no_temp(tmp_path, monkeypatch):
    """The bytes reach the temp file, then its fsync finds the disk full."""
    path = tmp_path / "f.json"
    ioutil.write_bytes(str(path), b"old")
    monkeypatch.setattr(ioutil.os, "fsync", _enospc)
    with pytest.raises(OSError):
        ioutil.write_bytes(str(path), b"new and longer")
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["f.json"]


def test_atomic_open_keeps_newlines_and_writes_nothing_on_error(tmp_path):
    path = tmp_path / "t.csv"
    with ioutil.atomic_open(str(path), newline="") as fh:
        fh.write("a,b\r\n")
    assert path.read_bytes() == b"a,b\r\n"
    with pytest.raises(RuntimeError):
        with ioutil.atomic_open(str(path)) as fh:
            fh.write("x\n")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"a,b\r\n"
    assert os.listdir(tmp_path) == ["t.csv"]


# ---------------------------------------------------------------------------
# write_record / read_record
# ---------------------------------------------------------------------------
def test_a_record_reads_back_without_its_stamp(tmp_path):
    path = str(tmp_path / "r.json")
    record = {"b": [1, 2.5, None], "a": {"x": "y"}, "inf": float("inf")}
    ioutil.write_record(path, record)
    assert ioutil.read_record(path) == record
    assert ioutil.read_record(str(tmp_path / "absent.json")) is None


@pytest.mark.parametrize(
    "damage", ["torn", "not-json", "unstamped", "not-an-object", "edited"]
)
def test_a_damaged_record_is_refused(tmp_path, damage):
    path = tmp_path / "r.json"
    ioutil.write_record(str(path), {"value": 1, "text": "abc"})
    text = path.read_text()
    if damage == "torn":
        path.write_text(text[: len(text) // 2])
    elif damage == "not-json":
        path.write_text("not json")
    elif damage == "unstamped":
        path.write_text(json.dumps({"value": 1, "text": "abc"}))
    elif damage == "not-an-object":
        path.write_text("[1, 2]")
    else:
        path.write_text(text.replace('"value": 1', '"value": 2'))
    with pytest.raises(ioutil.RecordError):
        ioutil.read_record(str(path))


def test_a_checkpoint_written_by_earlier_releases_loads_and_is_rewritten_byte_identical(
    tmp_path,
):
    """Earlier releases wrote a checkpoint as ``json.dump`` of the entry
    with ``sha256`` over the canonical JSON of its other keys, so an
    interrupted run resumes across the upgrade."""
    store = CheckpointStore(root=str(tmp_path), run_key="abc123")
    state = {"next_epoch": 1, "alloc": [2], "carryover": [1.5], "cooldown": None}
    entry = {"format": 1, "version": store.version, "run_key": "abc123",
             "epoch": 0, "epoch_result": {"epoch": 0}, "state": state}
    canonical = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    entry["sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    os.makedirs(store.run_dir)
    with open(store.path(0), "w") as fh:
        json.dump(entry, fh)
    earlier = pathlib.Path(store.path(0)).read_bytes()

    assert store.load_epoch(0)["state"] == state
    store.save(0, {"epoch": 0}, state)
    assert pathlib.Path(store.path(0)).read_bytes() == earlier


# ---------------------------------------------------------------------------
# The job store
# ---------------------------------------------------------------------------
def test_job_store_reads_a_damaged_or_unstamped_file_as_missing(tmp_path):
    store = JobStore(str(tmp_path))
    store.save(JobRecord(job_id="abc", kind="sweep", request={}))
    store.write_result("abc", {"digest": "d"})
    # A record as earlier releases wrote it: plain JSON, no stamp.
    with open(store.job_path("old"), "w") as fh:
        json.dump(JobRecord(job_id="old", kind="sweep", request={}).to_dict(), fh)
    assert store.load("old") is None
    assert [r.job_id for r in store.load_all()] == ["abc"]

    path = pathlib.Path(store.result_path("abc"))
    path.write_text(path.read_text().replace('"d"', '"e"'))
    assert store.read_result("abc") is None


def test_an_edited_job_result_is_not_served(tmp_path):
    handle = start_in_thread(cache_dir=str(tmp_path / "cache"),
                             service_workers=1)
    client = ServiceClient(port=handle.port)
    try:
        job_id = client.submit(sweep_body())["job_id"]
        client.wait(job_id, timeout_s=60, poll_s=0.02)
        path = handle.service.store.result_path(job_id)
        with open(path) as fh:
            payload = json.load(fh)
        payload["digest"] = "0" * 64
        with open(path, "w") as fh:
            json.dump(payload, fh)
        status, body = client._request("GET", f"/jobs/{job_id}/result")
        assert status == 500 and "0" * 64 not in json.dumps(body)
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# A full disk under the job service
# ---------------------------------------------------------------------------
def _fail_next_write_of(store, monkeypatch, state):
    """The store's next write of a record in ``state`` finds the disk full."""
    real = store.save
    armed = [True]

    def save(record):
        if armed[0] and record.state == state:
            armed[0] = False
            _enospc()
        return real(record)

    monkeypatch.setattr(store, "save", save)


def test_a_full_disk_at_a_job_outcome_does_not_stop_its_slot(
    tmp_path, monkeypatch
):
    """The outcome stands in memory and is served; the record on disk
    stays queued, so the next process recomputes it; the slot goes on."""
    handle = start_in_thread(cache_dir=str(tmp_path / "cache"),
                             service_workers=1)
    client = ServiceClient(port=handle.port)
    store = handle.service.store
    _fail_next_write_of(store, monkeypatch, "done")
    try:
        first = client.submit(sweep_body("0"))["job_id"]
        assert client.wait(first, timeout_s=60, poll_s=0.02)["state"] == "done"
        assert client.result(first)["digest"]
        second = client.submit(sweep_body("1"))["job_id"]
        assert client.wait(second, timeout_s=30, poll_s=0.02)["state"] == "done"
        assert store.load(first).state == "queued"
        assert store.load(second).state == "done"
    finally:
        handle.stop()


def test_a_full_disk_at_submission_queues_nothing(tmp_path, monkeypatch):
    """The client gets a 500 and nothing is queued, so a resubmission
    creates the job and it runs."""
    handle = start_in_thread(cache_dir=str(tmp_path / "cache"),
                             service_workers=1)
    client = ServiceClient(port=handle.port)
    _fail_next_write_of(handle.service.store, monkeypatch, "queued")
    try:
        status, _ = client._request("POST", "/jobs", sweep_body())
        assert status == 500
        assert client.healthz()["queue_depth"] == 0
        again = client.submit(sweep_body())
        assert again["created"] is True
        assert client.wait(again["job_id"], timeout_s=30,
                           poll_s=0.02)["state"] == "done"
    finally:
        handle.stop()
