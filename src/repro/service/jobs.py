"""Persistent job records, the on-disk job store, and the JobManager.

Everything lives under ``<cache_root>/jobs/`` as stamped records
(:func:`repro.core.ioutil.write_record`); a torn, edited or unstamped
file reads as missing, so a damaged result is never served:

* ``<job_id>.json`` — the :class:`JobRecord` (normalized request body,
  state, timestamps, error);
* ``<job_id>.result.json`` — the result payload, written once when the
  job completes (completed work survives restarts for free);
* ``<job_id>.trace.json`` — the Perfetto trace, when telemetry was on.

State machine: ``queued -> running -> done | failed``.  The manager
holds the only queue of pending jobs; :meth:`JobManager.next_job` claims
the oldest.  A record is written when its job is queued and when it
ends, never when it starts, so a job whose process stops mid-job is
still ``queued`` on disk and :meth:`JobManager.recover` re-enqueues it
in original submission order.

Dedupe contract: the job id *is* the content hash of the job's identity
(:func:`repro.service.spec.job_content_id`), so concurrent clients
posting the same configuration race benignly — whoever arrives first
creates the record, everyone else gets the same id back and exactly one
underlying run happens.  A ``failed`` job is the one exception:
resubmitting it resets the record to ``queued`` for another attempt.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core import ioutil
from repro.parallel.cache import DEFAULT_CACHE_DIR, CacheStats
from repro.service.spec import JobRequest, job_content_id, parse_job_request

JOB_STATES = ("queued", "running", "done", "failed")


class QueueFullError(RuntimeError):
    """Admission control rejected a submission (queue at capacity)."""


@dataclass
class JobRecord:
    """One job's persistent state (everything but the result payload)."""

    job_id: str
    kind: str
    request: Dict[str, Any]
    state: str = "queued"
    workers: int = 1
    submitted_s: float = 0.0
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: Last progress line from the runner (in-memory only; not persisted
    #: because it would mean a disk write per epoch).
    progress: str = field(default="", compare=False)
    error: Optional[str] = None
    digest: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out.pop("progress")
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        known = {f for f in cls.__dataclass_fields__ if f != "progress"}
        return cls(**{k: v for k, v in data.items() if k in known})

    def expired(self, ttl_s: float, now: float) -> bool:
        """The TTL rule: terminal (done/failed), and finished — else
        submitted — at least ``ttl_s`` seconds before ``now``."""
        if self.state not in ("done", "failed"):
            return False
        return now - (self.finished_s or self.submitted_s or 0.0) >= ttl_s

    def status_dict(self) -> Dict[str, Any]:
        """What ``GET /jobs/{id}`` returns."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "workers": self.workers,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "progress": self.progress,
            "error": self.error,
            "digest": self.digest,
        }


class JobStore:
    """On-disk job records and result payloads, as stamped records."""

    def __init__(self, cache_root: str = DEFAULT_CACHE_DIR):
        self.root = os.path.join(cache_root, "jobs")

    def job_path(self, job_id: str) -> str:
        return os.path.join(self.root, f"{job_id}.json")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.root, f"{job_id}.result.json")

    def trace_path(self, job_id: str) -> str:
        return os.path.join(self.root, f"{job_id}.trace.json")

    def save(self, record: JobRecord) -> None:
        ioutil.write_record(self.job_path(record.job_id), record.to_dict())

    def load(self, job_id: str) -> Optional[JobRecord]:
        try:
            data = ioutil.read_record(self.job_path(job_id))
            return None if data is None else JobRecord.from_dict(data)
        except (ioutil.RecordError, TypeError):
            return None

    def job_ids(self) -> List[str]:
        """The id of every record file on disk (readable or not), sorted;
        ``.result``/``.trace`` siblings are not records."""
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return []
        return sorted(
            name[: -len(".json")] for name in names
            if name.endswith(".json")
            and not name.endswith((".result.json", ".trace.json"))
        )

    def load_all(self) -> List[JobRecord]:
        """Every readable job record, oldest submission first."""
        records = [r for r in map(self.load, self.job_ids()) if r is not None]
        records.sort(key=lambda r: (r.submitted_s, r.job_id))
        return records

    def write_result(self, job_id: str, payload: Dict[str, Any]) -> None:
        ioutil.write_record(self.result_path(job_id), payload)

    def read_result(self, job_id: str) -> Optional[Dict[str, Any]]:
        try:
            return ioutil.read_record(self.result_path(job_id))
        except ioutil.RecordError:
            return None

    def delete(self, job_id: str) -> bool:
        """Remove a job record and its ``.result``/``.trace`` siblings.

        Returns True when the record file itself existed.  Used by TTL
        eviction; the underlying simulation results stay in the
        ResultCache, so a re-submitted job re-serves from cache rather
        than re-simulating.
        """
        removed = False
        for path in (
            self.job_path(job_id),
            self.result_path(job_id),
            self.trace_path(job_id),
        ):
            try:
                os.remove(path)
            except OSError:
                continue
            if path == self.job_path(job_id):
                removed = True
        return removed


class JobManager:
    """Thread-safe job table with bounded admission and content dedupe.

    The manager owns all state transitions and the queue of pending jobs;
    the HTTP layer and the job slots only ever call its methods.  A
    submission is written before it is queued, so a failed write queues
    nothing.  A failed outcome write goes to ``log``: the outcome stands
    in memory, and the record stays ``queued`` on disk for the next
    process to recompute from the result cache.
    """

    def __init__(self, store: JobStore, max_queue: int = 64,
                 log: Optional[Callable[[str], None]] = None):
        self.store = store
        self.max_queue = max_queue
        self.log = log or (lambda message: None)
        #: Reentrant so that next_job() can claim() while it holds it.
        self._lock = threading.RLock()
        #: Notified when a job is queued or the manager closes.
        self._queued = threading.Condition(self._lock)
        self._closed = False
        self.jobs: Dict[str, JobRecord] = {}
        self._pending: Deque[str] = deque()
        # Service-lifetime counters (exported by /metrics).
        self.submitted = 0
        self.deduped = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.resumed = 0
        self.evicted = 0
        #: Job ids actually executed by this process — the concurrency
        #: tests assert one execution per unique config.
        self.executions: List[str] = []
        self._cache_totals = CacheStats()

    # -- submission ----------------------------------------------------
    def submit(self, body: Any) -> Tuple[JobRecord, bool]:
        """Validate + admit one job body.

        Returns ``(record, created)``; ``created`` is False when the
        submission deduped onto an existing job.  Raises
        :class:`~repro.service.spec.JobValidationError` on a bad body and
        :class:`QueueFullError` when admission control rejects it.
        """
        request = parse_job_request(body)
        job_id = job_content_id(request)
        with self._lock:
            existing = self.jobs.get(job_id)
            if existing is not None and existing.state != "failed":
                self.deduped += 1
                return existing, False
            if len(self._pending) >= self.max_queue:
                self.rejected += 1
                raise QueueFullError(
                    f"submission queue full ({self.max_queue} job(s) pending)"
                )
            if existing is not None:  # failed -> retry from scratch
                record = dataclasses.replace(
                    existing, state="queued", error=None, started_s=None,
                    finished_s=None, submitted_s=time.time(),
                )
            else:
                record = JobRecord(
                    job_id=job_id,
                    kind=request.kind,
                    request=request.to_request_dict(),
                    workers=request.workers,
                    submitted_s=time.time(),
                )
            self.store.save(record)  # raises before anything is queued
            self.jobs[job_id] = record
            self.submitted += 1
            self._pending.append(job_id)
            self._queued.notify()
            return record, True

    # -- slot-side transitions ----------------------------------------
    def next_job(self) -> Optional[Tuple[JobRecord, JobRequest]]:
        """Block until a job is queued, then claim the oldest (see
        :meth:`claim`); None once the manager is closed."""
        with self._lock:
            while True:
                self._queued.wait_for(lambda: self._pending or self._closed)
                if self._closed:
                    return None
                claimed = self.claim(self._pending[0])
                if claimed is not None:
                    return claimed

    def claim(self, job_id: str) -> Optional[Tuple[JobRecord, JobRequest]]:
        """Take a job off the queue and move it to ``running`` (in memory
        only); None if it is not claimable (already ran, or its persisted
        request no longer parses)."""
        with self._lock:
            if job_id in self._pending:
                self._pending.remove(job_id)
            record = self.jobs.get(job_id)
            if record is None or record.state != "queued":
                return None
            try:
                request = parse_job_request(record.request)
            except ValueError as exc:
                record.state = "failed"
                record.error = f"persisted request no longer valid: {exc}"
                record.finished_s = time.time()
                self.failed += 1
                self._save_outcome(record)
                return None
            record.state = "running"
            record.started_s = time.time()
            record.progress = ""
            self.executions.append(job_id)
            return record, request

    def _save_outcome(self, record: JobRecord) -> None:
        """Write a job's outcome; a failed write is logged, not raised."""
        try:
            self.store.save(record)
        except OSError as exc:
            self.log(
                f"job {record.job_id[:12]}: could not record {record.state!r} "
                f"({exc}); it stays queued on disk"
            )

    def close(self) -> None:
        """Stop handing out jobs: :meth:`next_job` returns None, and
        :meth:`finish` and :meth:`fail` record nothing (and return False),
        so a job still running at shutdown stays ``queued`` on disk for
        the next process."""
        with self._lock:
            self._closed = True
            self._queued.notify_all()

    def finish(self, job_id: str, digest: str) -> bool:
        """Record a job's success; False if nothing was recorded."""
        with self._lock:
            if self._closed:
                return False
            record = self.jobs[job_id]
            record.state = "done"
            record.digest = digest
            record.finished_s = time.time()
            self.completed += 1
            self._save_outcome(record)
            return True

    def fail(self, job_id: str, error: str) -> bool:
        """Record a job's failure; False if nothing was recorded."""
        with self._lock:
            record = self.jobs.get(job_id)
            if record is None or self._closed:
                return False
            record.state = "failed"
            record.error = error
            record.finished_s = time.time()
            self.failed += 1
            self._save_outcome(record)
            return True

    def set_progress(self, job_id: str, message: str) -> None:
        record = self.jobs.get(job_id)
        if record is not None:
            record.progress = message

    def fold_cache_stats(self, stats: CacheStats) -> None:
        """Accumulate one job's ResultCache counters into the service
        totals (each job runs with its own cache instance over the shared
        root, so counters never race across worker threads)."""
        with self._lock:
            self._cache_totals.hits += stats.hits
            self._cache_totals.misses += stats.misses
            self._cache_totals.stores += stats.stores
            self._cache_totals.invalidations += stats.invalidations
            self._cache_totals.store_failures += stats.store_failures

    # -- TTL eviction --------------------------------------------------
    def evict_expired(self, ttl_s: float, now: Optional[float] = None) -> List[str]:
        """Drop terminal jobs past their TTL (:meth:`JobRecord.expired`).

        Eviction removes the job record and its ``.result``/``.trace``
        files and forgets the id, so a later identical submission runs as
        a fresh job — but its simulation results still hit the
        ResultCache, so eviction never costs recomputation, only
        job-table memory and job-store disk.  Returns the evicted ids
        (oldest first).
        """
        now = time.time() if now is None else now
        evicted: List[str] = []
        with self._lock:
            for job_id, record in sorted(
                self.jobs.items(),
                key=lambda kv: kv[1].finished_s or kv[1].submitted_s,
            ):
                if not record.expired(ttl_s, now):
                    continue
                self.store.delete(job_id)
                del self.jobs[job_id]
                self.evicted += 1
                evicted.append(job_id)
        return evicted

    # -- recovery ------------------------------------------------------
    def recover(self) -> List[str]:
        """Load persisted jobs at startup; return ids needing execution.

        Every record that did not end — a job queued, or running when
        the previous process stopped — is queued again, oldest first.
        Completed/failed records are kept so their results stay servable
        and dedupe keeps working.
        """
        to_run: List[str] = []
        with self._lock:
            for record in self.store.load_all():
                self.jobs[record.job_id] = record
                if record.state not in ("done", "failed"):
                    record.state = "queued"
                    self._pending.append(record.job_id)
                    to_run.append(record.job_id)
                    self.resumed += 1
            self._queued.notify_all()
        return to_run

    # -- introspection -------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        return self.jobs.get(job_id)

    def queue_depth(self) -> int:
        return len(self._pending)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for record in self.jobs.values():
                counts[record.state] += 1
            return counts

    def cache_totals(self) -> CacheStats:
        with self._lock:
            return dataclasses.replace(self._cache_totals)


def prune_job_records(
    store: JobStore, ttl_s: float, now: Optional[float] = None
) -> int:
    """Offline TTL sweep over a job store (``repro cache --prune-jobs``).

    Same rule as :meth:`JobManager.evict_expired`
    (:meth:`JobRecord.expired`), but driven from the on-disk records so it
    works without a running service; queued/running jobs belong to a live
    or resumable service and are left alone.  Returns the number of
    records removed.
    """
    now = time.time() if now is None else now
    removed = 0
    for record in store.load_all():
        if record.expired(ttl_s, now) and store.delete(record.job_id):
            removed += 1
    return removed
