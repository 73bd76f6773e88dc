"""Tests for the service layer's request parsing, identity contract,
job store, and JobManager state machine (no sockets involved)."""

import json
import sys
import threading
import time

import pytest

import repro
from repro.config import SimulationConfig
from repro.service.jobs import JobManager, JobRecord, JobStore, QueueFullError
from repro.service.spec import (
    JobValidationError,
    job_content_id,
    parse_job_request,
    validate_simulation,
)

TINY_SIM = {"horizon_ms": 12.0, "warmup_ms": 2.0, "accesses_per_segment": 3}


def sweep_body(**overrides):
    body = {
        "kind": "sweep",
        "systems": "NoHarvest",
        "seeds": "0..1",
        "simulation": dict(TINY_SIM),
    }
    body.update(overrides)
    return body


def cluster_body(**overrides):
    body = {
        "kind": "cluster",
        "system": "HardHarvest-Block",
        "cluster": {"servers": 2, "requests": 800, "epochs": 2,
                    "routing": "p2c"},
        "simulation": dict(TINY_SIM),
    }
    body.update(overrides)
    return body


# ---------------------------------------------------------------------------
# Parsing and validation.
# ---------------------------------------------------------------------------
class TestParsing:
    def test_sweep_points_grid(self):
        request = parse_job_request(sweep_body(systems="NoHarvest,Harvest-Term"))
        points = request.points()
        assert [p.label for p in points] == [
            "NoHarvest/seed=0", "NoHarvest/seed=1",
            "Harvest-Term/seed=0", "Harvest-Term/seed=1",
        ]

    def test_body_must_be_object(self):
        with pytest.raises(JobValidationError):
            parse_job_request([1, 2])

    def test_unknown_kind_blames_kind(self):
        with pytest.raises(JobValidationError) as excinfo:
            parse_job_request({"kind": "banana"})
        assert excinfo.value.field == "kind"

    def test_unknown_system_blames_systems(self):
        with pytest.raises(JobValidationError) as excinfo:
            parse_job_request(sweep_body(systems="NoSuchSystem"))
        assert excinfo.value.field == "systems"

    def test_bad_seeds_blames_seeds(self):
        with pytest.raises(JobValidationError) as excinfo:
            parse_job_request(sweep_body(seeds="7..3"))
        assert excinfo.value.field == "seeds"

    def test_unknown_sim_field_named(self):
        body = sweep_body(simulation={**TINY_SIM, "horizn_ms": 10})
        with pytest.raises(JobValidationError) as excinfo:
            parse_job_request(body)
        assert excinfo.value.field == "horizn_ms"

    def test_negative_horizon_blames_horizon(self):
        body = sweep_body(simulation={"horizon_ms": -5})
        with pytest.raises(JobValidationError) as excinfo:
            parse_job_request(body)
        assert excinfo.value.field == "horizon_ms"
        assert "horizon_ms" in str(excinfo.value)

    def test_warmup_beyond_horizon_blames_warmup(self):
        body = sweep_body(simulation={"horizon_ms": 10, "warmup_ms": 10})
        with pytest.raises(JobValidationError) as excinfo:
            parse_job_request(body)
        assert excinfo.value.field == "warmup_ms"

    def test_workers_bounds(self):
        with pytest.raises(JobValidationError) as excinfo:
            parse_job_request(sweep_body(workers=0))
        assert excinfo.value.field == "workers"
        with pytest.raises(JobValidationError):
            parse_job_request(sweep_body(workers="four"))

    def test_warmup_defaults_like_the_cli(self):
        request = parse_job_request(
            sweep_body(simulation={"horizon_ms": 300.0})
        )
        assert request.sim.warmup_ms == pytest.approx(60.0)

    def test_cluster_unknown_routing(self):
        body = cluster_body()
        body["cluster"]["routing"] = "banana"
        with pytest.raises(JobValidationError) as excinfo:
            parse_job_request(body)
        assert excinfo.value.field == "routing"

    def test_cluster_unknown_fault_plan(self):
        with pytest.raises(JobValidationError) as excinfo:
            parse_job_request(cluster_body(fault_plan="meteor-strike"))
        assert excinfo.value.field == "fault_plan"

    def test_cluster_core_budget_checked_at_submit(self):
        body = cluster_body()
        body["cluster"]["harvest_max_cores"] = 99
        with pytest.raises(JobValidationError) as excinfo:
            parse_job_request(body)
        assert excinfo.value.field == "harvest_max_cores"

    def test_validate_simulation_accepts_defaults(self):
        validate_simulation(SimulationConfig())

    def test_validate_simulation_flags_bad_seed(self):
        with pytest.raises(JobValidationError) as excinfo:
            validate_simulation(SimulationConfig(seed=-1))
        assert excinfo.value.field == "seed"


# ---------------------------------------------------------------------------
# Identity: the dedupe and cache-key contract.
# ---------------------------------------------------------------------------
class TestIdentity:
    def test_workers_never_split_job_ids(self):
        base = parse_job_request(sweep_body(workers=1))
        other = parse_job_request(sweep_body(workers=4))
        assert job_content_id(base) == job_content_id(other)

    def test_int_vs_float_fields_hash_equal(self):
        ints = parse_job_request(
            sweep_body(simulation={"horizon_ms": 12, "warmup_ms": 2,
                                   "accesses_per_segment": 3})
        )
        floats = parse_job_request(sweep_body())
        assert job_content_id(ints) == job_content_id(floats)

    def test_different_seeds_different_ids(self):
        a = parse_job_request(sweep_body(seeds="0"))
        b = parse_job_request(sweep_body(seeds="1"))
        assert job_content_id(a) != job_content_id(b)

    def test_sweep_vs_cluster_never_collide(self):
        assert job_content_id(
            parse_job_request(sweep_body())
        ) != job_content_id(parse_job_request(cluster_body()))

    def test_request_dict_roundtrip_is_identity_stable(self):
        for body in (sweep_body(), cluster_body(),
                     cluster_body(fault_plan="crash-storm")):
            request = parse_job_request(body)
            rebuilt = parse_job_request(request.to_request_dict())
            assert job_content_id(rebuilt) == job_content_id(request)

    def test_id_salted_by_package_version(self):
        request = parse_job_request(sweep_body())
        from repro.parallel.cache import ResultCache

        other = ResultCache(version="0.0.0-test")
        assert job_content_id(request) != other.key(request.identity())


# ---------------------------------------------------------------------------
# The on-disk store.
# ---------------------------------------------------------------------------
class TestJobStore:
    def test_record_roundtrip(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = JobRecord(job_id="abc", kind="sweep",
                           request=sweep_body(), submitted_s=1.0)
        store.save(record)
        loaded = store.load("abc")
        assert loaded == record

    def test_corrupt_record_is_none(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.save(JobRecord(job_id="abc", kind="sweep", request={}))
        (tmp_path / "jobs" / "abc.json").write_text("{ torn")
        assert store.load("abc") is None

    def test_load_all_orders_by_submission(self, tmp_path):
        store = JobStore(str(tmp_path))
        for i, job_id in enumerate(["zzz", "aaa", "mmm"]):
            store.save(JobRecord(job_id=job_id, kind="sweep", request={},
                                 submitted_s=float(i)))
        assert [r.job_id for r in store.load_all()] == ["zzz", "aaa", "mmm"]

    def test_result_files_not_mistaken_for_records(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.save(JobRecord(job_id="abc", kind="sweep", request={}))
        store.write_result("abc", {"digest": "d"})
        assert len(store.load_all()) == 1
        assert store.read_result("abc") == {"digest": "d"}


# ---------------------------------------------------------------------------
# JobManager state machine.
# ---------------------------------------------------------------------------
class TestJobManager:
    def make(self, tmp_path, max_queue=4):
        return JobManager(JobStore(str(tmp_path)), max_queue=max_queue)

    def test_submit_dedupes(self, tmp_path):
        manager = self.make(tmp_path)
        first, created_a = manager.submit(sweep_body())
        second, created_b = manager.submit(sweep_body(workers=4))
        assert created_a and not created_b
        assert first.job_id == second.job_id
        assert manager.deduped == 1
        assert manager.queue_depth() == 1

    def test_admission_control(self, tmp_path):
        manager = self.make(tmp_path, max_queue=1)
        manager.submit(sweep_body(seeds="0"))
        with pytest.raises(QueueFullError):
            manager.submit(sweep_body(seeds="1"))
        assert manager.rejected == 1

    def test_claim_finish_cycle_persists(self, tmp_path):
        manager = self.make(tmp_path)
        record, _ = manager.submit(sweep_body())
        claimed, request = manager.claim(record.job_id)
        assert claimed.state == "running"
        assert request.kind == "sweep"
        manager.finish(record.job_id, "digest123")
        on_disk = manager.store.load(record.job_id)
        assert on_disk.state == "done"
        assert on_disk.digest == "digest123"
        # A done job cannot be claimed again.
        assert manager.claim(record.job_id) is None

    def test_failed_job_resubmission_requeues(self, tmp_path):
        manager = self.make(tmp_path)
        record, _ = manager.submit(sweep_body())
        manager.claim(record.job_id)
        manager.fail(record.job_id, "boom")
        assert manager.get(record.job_id).state == "failed"
        again, created = manager.submit(sweep_body())
        assert created and again.job_id == record.job_id
        assert again.state == "queued" and again.error is None

    def test_recover_requeues_interrupted_jobs(self, tmp_path):
        manager = self.make(tmp_path)
        queued, _ = manager.submit(sweep_body(seeds="0"))
        running, _ = manager.submit(sweep_body(seeds="1"))
        manager.claim(queued.job_id)
        manager.finish(queued.job_id, "d")
        manager.claim(running.job_id)  # dies mid-job here

        fresh = self.make(tmp_path)
        to_run = fresh.recover()
        assert to_run == [running.job_id]
        assert fresh.get(running.job_id).state == "queued"
        assert fresh.get(queued.job_id).state == "done"
        assert fresh.resumed == 1

    def test_a_claimed_job_stays_queued_on_disk(self, tmp_path):
        """Claiming writes nothing: until the job ends its record says
        ``queued``, so a process that stops mid-job needs no requeue."""
        manager = self.make(tmp_path)
        record, _ = manager.submit(sweep_body())
        path = tmp_path / "jobs" / f"{record.job_id}.json"
        before = path.read_bytes()
        manager.claim(record.job_id)
        assert manager.get(record.job_id).state == "running"
        assert path.read_bytes() == before
        assert manager.store.load(record.job_id).state == "queued"

    def test_next_job_claims_the_oldest_and_none_once_closed(self, tmp_path):
        manager = self.make(tmp_path)
        first, _ = manager.submit(sweep_body(seeds="0"))
        second, _ = manager.submit(sweep_body(seeds="1"))
        claimed, request = manager.next_job()
        assert claimed.job_id == first.job_id and claimed.state == "running"
        assert manager.store.load(first.job_id).state == "queued"
        assert manager.queue_depth() == 1
        assert manager.next_job()[0].job_id == second.job_id

        got = []
        waiter = threading.Thread(target=lambda: got.append(manager.next_job()))
        waiter.start()  # blocks on the empty queue until a submission
        third, _ = manager.submit(sweep_body(seeds="2"))
        waiter.join(timeout=10)
        assert not waiter.is_alive() and got[0][0].job_id == third.job_id

        waiter = threading.Thread(target=lambda: got.append(manager.next_job()))
        waiter.start()
        manager.close()
        waiter.join(timeout=10)
        assert not waiter.is_alive() and got[1] is None
        # After close() an outcome records nothing: every record stays
        # queued on disk for the next process.
        manager.finish(first.job_id, "d")
        manager.fail(second.job_id, "boom")
        assert manager.get(second.job_id).state == "running"
        for job in (first, second, third):
            assert manager.store.load(job.job_id).state == "queued"

    def test_counts_by_state(self, tmp_path):
        manager = self.make(tmp_path)
        record, _ = manager.submit(sweep_body())
        counts = manager.counts()
        assert counts["queued"] == 1
        assert counts["done"] == 0


def test_concurrent_slots_claim_every_job_exactly_once(tmp_path):
    """Eight slots claim from a stream of submissions with a short switch
    interval: each job is claimed once, and close() releases every slot."""
    manager = JobManager(JobStore(str(tmp_path)), max_queue=64)
    claimed, lock = [], threading.Lock()

    def slot():
        while True:
            job = manager.next_job()
            if job is None:
                return
            with lock:
                claimed.append(job[0].job_id)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    slots = [threading.Thread(target=slot) for _ in range(8)]
    try:
        for thread in slots:
            thread.start()
        ids = [manager.submit(sweep_body(seeds=str(seed)))[0].job_id
               for seed in range(40)]
        deadline = time.monotonic() + 30
        while len(claimed) < len(ids) and time.monotonic() < deadline:
            time.sleep(0.01)
        manager.close()
        for thread in slots:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in slots)
    assert sorted(claimed) == sorted(ids) == sorted(manager.executions)
    assert manager.queue_depth() == 0


def test_job_record_rejects_future_fields_gracefully():
    """from_dict drops unknown keys so old services can read newer files."""
    record = JobRecord.from_dict(
        {"job_id": "x", "kind": "sweep", "request": {},
         "state": "queued", "workers": 1, "submitted_s": 0.0,
         "a_future_field": True}
    )
    assert record.job_id == "x"


def test_version_salt_matches_cache_contract(tmp_path):
    """Job ids roll with the package version, exactly like cache keys."""
    request = parse_job_request(
        {"kind": "sweep", "systems": "NoHarvest", "seeds": "0",
         "simulation": dict(TINY_SIM)}
    )
    from repro.parallel.cache import ResultCache

    expected = ResultCache().key(request.identity())
    assert job_content_id(request) == expected
    material = (
        json.dumps(request.identity(), sort_keys=True,
                   separators=(",", ":"), allow_nan=True)
        + "\n" + repro.__version__
    )
    import hashlib

    assert expected == hashlib.sha256(material.encode()).hexdigest()
