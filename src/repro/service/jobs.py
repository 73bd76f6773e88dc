"""Persistent job records, the on-disk job store, and the JobManager.

Layout mirrors the result cache: everything lives under
``<cache_root>/jobs/`` with atomic temp-plus-rename writes, so a crashed
or SIGTERM'd service never leaves a torn record and a restarted one can
pick up exactly where it stopped:

* ``<job_id>.json`` — the :class:`JobRecord` (normalized request body,
  state, timestamps, error);
* ``<job_id>.result.json`` — the result payload, written once when the
  job completes (completed work survives restarts for free);
* ``<job_id>.trace.json`` — the Perfetto trace, when telemetry was on.

State machine: ``queued -> running -> done | failed``.  The manager
holds the only queue of pending jobs; :meth:`JobManager.next_job` claims
the oldest.  On startup :meth:`JobManager.recover` folds any ``running``
record back to ``queued`` (the process died mid-job) and re-enqueues all
queued work in original submission order.
:meth:`JobManager.requeue_unfinished` does the same at shutdown so jobs
still in flight when the grace period expires are resumed by the next
process rather than lost.

Dedupe contract: the job id *is* the content hash of the job's identity
(:func:`repro.service.spec.job_content_id`), so concurrent clients
posting the same configuration race benignly — whoever arrives first
creates the record, everyone else gets the same id back and exactly one
underlying run happens.  A ``failed`` job is the one exception:
resubmitting it resets the record to ``queued`` for another attempt.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.ioutil import atomic_open
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
    """Atomic on-disk persistence for job records and result payloads."""

    def __init__(self, cache_root: str = DEFAULT_CACHE_DIR):
        self.root = os.path.join(cache_root, "jobs")

    def job_path(self, job_id: str) -> str:
        return os.path.join(self.root, f"{job_id}.json")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.root, f"{job_id}.result.json")

    def trace_path(self, job_id: str) -> str:
        return os.path.join(self.root, f"{job_id}.trace.json")

    def save(self, record: JobRecord) -> None:
        os.makedirs(self.root, exist_ok=True)
        with atomic_open(self.job_path(record.job_id)) as fh:
            json.dump(record.to_dict(), fh, indent=2)

    def load(self, job_id: str) -> Optional[JobRecord]:
        try:
            with open(self.job_path(job_id)) as fh:
                return JobRecord.from_dict(json.load(fh))
        except (OSError, ValueError, TypeError, KeyError):
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
        os.makedirs(self.root, exist_ok=True)
        with atomic_open(self.result_path(job_id)) as fh:
            json.dump(payload, fh, indent=2)

    def read_result(self, job_id: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self.result_path(job_id)) as fh:
                return json.load(fh)
        except (OSError, ValueError):
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
    the HTTP layer and the job slots only ever call its methods.  Every
    mutation persists the record through the :class:`JobStore` before
    returning, so the on-disk view is never newer than the in-memory one.
    """

    def __init__(self, store: JobStore, max_queue: int = 64):
        self.store = store
        self.max_queue = max_queue
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
                record = existing
                record.state = "queued"
                record.error = None
                record.started_s = None
                record.finished_s = None
                record.submitted_s = time.time()
            else:
                record = JobRecord(
                    job_id=job_id,
                    kind=request.kind,
                    request=request.to_request_dict(),
                    workers=request.workers,
                    submitted_s=time.time(),
                )
                self.jobs[job_id] = record
            self.submitted += 1
            self._pending.append(job_id)
            self.store.save(record)
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
        """Take a job off the queue and move it to ``running``; None if it
        is not claimable (already ran, or its persisted request no longer
        parses)."""
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
                self.store.save(record)
                return None
            record.state = "running"
            record.started_s = time.time()
            record.progress = ""
            self.executions.append(job_id)
            self.store.save(record)
            return record, request

    def close(self) -> None:
        """Stop handing out jobs: :meth:`next_job` returns None, and
        :meth:`finish` and :meth:`fail` record nothing (and return False),
        so a job still running at shutdown stays unfinished for
        :meth:`requeue_unfinished`."""
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
            self.store.save(record)
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
            self.store.save(record)
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

        ``running`` records mean a previous process died mid-job: they
        fold back to ``queued``.  Completed/failed records are kept so
        their results stay servable and dedupe keeps working.
        """
        to_run: List[str] = []
        with self._lock:
            for record in self.store.load_all():
                self.jobs[record.job_id] = record
                if record.state == "running":
                    record.state = "queued"
                    self.store.save(record)
                if record.state == "queued":
                    self._pending.append(record.job_id)
                    to_run.append(record.job_id)
                    self.resumed += 1
            self._queued.notify_all()
        return to_run

    def requeue_unfinished(self) -> List[str]:
        """Mark every non-terminal job ``queued`` on disk (shutdown path:
        the next service process resumes them)."""
        requeued = []
        with self._lock:
            for record in self.jobs.values():
                if record.state in ("queued", "running"):
                    record.state = "queued"
                    self.store.save(record)
                    requeued.append(record.job_id)
        return requeued

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
            return CacheStats(
                hits=self._cache_totals.hits,
                misses=self._cache_totals.misses,
                stores=self._cache_totals.stores,
                invalidations=self._cache_totals.invalidations,
            )


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
