"""Process-pool sweep execution with caching and deterministic collection.

The simulator is fully deterministic (named RNG substreams seeded from the
config) and sweep points are independent, so a sweep is embarrassingly
parallel: :func:`run_sweep` fans points out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and collects results
*keyed by point*, never by completion order — the returned mapping is in
:meth:`SweepSpec.points` order no matter which worker finished first.

Worker safety: a point crosses the process boundary as its canonical JSON
payload (not as pickled live objects), and the worker rebuilds the frozen
config dataclasses through :mod:`repro.core.serialize` — the same
validated path the CLI uses for ``--config`` files.

Failure policy: a worker crash, a poisoned pool, or a per-task timeout
marks the point failed *for that attempt only*.  Ordinary exceptions are
caught per point inside the chunk, so one bad point never discards its
chunk-mates' first-attempt results; a hard worker crash (which loses the
whole chunk) is salvaged by retrying each affected point as its own
singleton chunk.  Failed points are retried after each delay of
:data:`RETRY_DELAYS_S`, every retry isolated in a singleton chunk so a
poisoned point cannot take neighbours down with it, and a broken pool is
rebuilt (bounded by ``MAX_POOL_REBUILDS``) instead of failing the run.
Points that exhaust their attempts raise :class:`SweepError` naming every
failed label, or — with ``quarantine=True`` — are recorded in
:attr:`SweepOutcome.quarantined` and excluded from the results instead of
sinking the sweep.

Process ownership: a :class:`WorkerPool` keeps its workers across
batches, so one pool serves a sweep's retry rounds, a cluster run's
epochs (:func:`repro.cluster_scale.run_cluster_scale`) or a service
slot's jobs.  It forks nothing until a batch has work for it, and its
workers exit on their own when the process that forked them dies.

Determinism guard: with ``verify_cached=True``, every cache hit is
recomputed and the cached and fresh results must be *bit-identical*
(compared as canonical JSON).  A mismatch raises :class:`DeterminismError`
— this is the regression tripwire against hidden global-RNG use creeping
into :mod:`repro.cluster.server` workers.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any, Callable, ContextManager, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.core.export import server_result_from_dict, server_result_to_dict
from repro.core.metrics import ServerResult
from repro.parallel.cache import CacheStats, ResultCache, canonical_json
from repro.parallel.sweep import SweepPoint, SweepSpec
from repro.workloads.batch import BatchJobProfile


class SweepError(RuntimeError):
    """One or more sweep points failed after exhausting retries."""


class DeterminismError(RuntimeError):
    """A cached result and its fresh recompute were not bit-identical."""


#: A broken process pool is rebuilt at most this many times per batch
#: before the surviving chunks are marked failed for the attempt.
MAX_POOL_REBUILDS = 3

#: Seconds slept before each retry round of a batch's failed points; a
#: point runs at most ``len(RETRY_DELAYS_S) + 1`` times.  Backoff is
#: wall-clock only and never touches simulation state.
RETRY_DELAYS_S = (0.05, 0.10)

#: Patchable sleep hook so tests can assert backoff without waiting it out.
_sleep = time.sleep

#: Per-worker memo: content key -> deserialized config object.  A chunk
#: of cluster-scale points shares its SystemConfig / SimulationConfig /
#: BatchJobProfile sub-trees; deserializing each distinct sub-tree once
#: per worker (instead of once per point) removes the dominant per-point
#: setup cost.  Safe because every memoized object is a frozen dataclass.
_WORKER_MEMO: Dict[str, Any] = {}
#: Clear-on-full bound — sweeps reuse a handful of configs; this only
#: guards a pathological grid of thousands of distinct sub-configs.
_WORKER_MEMO_MAX = 512


#: How often a pool worker checks that the process that forked it lives.
_PARENT_POLL_S = 0.5


def _exit_with_parent(parent: int) -> None:
    """Worker thread: exit the process once its parent has died.

    An orphaned worker is re-parented, so ``os.getppid()`` changes; its
    call queue never reports end-of-file, because its siblings hold the
    same pipe open.  ``PR_SET_PDEATHSIG`` is no substitute: it fires when
    the forking *thread* exits, and service jobs fork from job threads.
    """
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _init_worker() -> None:
    """Process-pool initializer: reset the memo, pre-warm hot imports.

    Importing the simulator stack here (once per worker, before the
    first chunk lands) keeps the first task of every worker from paying
    the import cost inside its timed chunk.  That includes ``numpy.ma``,
    which the first ``np.percentile`` call would import otherwise.  In a
    pool worker it also starts the thread that ends the worker with its
    coordinator, even one killed with SIGKILL.
    """
    _WORKER_MEMO.clear()
    import numpy.ma  # noqa: F401
    import repro.core.experiment  # noqa: F401
    import repro.core.serialize  # noqa: F401
    if multiprocessing.parent_process() is not None:
        threading.Thread(
            target=_exit_with_parent, args=(os.getppid(),),
            name="repro-parent-watch", daemon=True,
        ).start()


class WorkerPool:
    """``workers`` pool processes with an owner that outlives one batch.

    The executor is built at the first batch that needs it, so a run
    served entirely from the cache forks nothing.  A broken executor is
    replaced at the next :meth:`executor` call, and after a chunk
    timeout (:meth:`kill_workers`) the next batch gets fresh workers.
    :meth:`close` joins the workers (or kills them) and refuses to start
    new ones.
    The owner keeps one batch at a time on a pool; only :meth:`close`
    may come from another thread.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._lock = threading.Lock()

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, built on first use and rebuilt once broken:
        by a worker dying mid-batch or between batches (the OOM killer,
        a stray signal)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if self._executor is not None and self._executor._broken:
                self._drop(kill=False, wait=False)
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_init_worker
                )
            return self._executor

    def kill_workers(self) -> None:
        """SIGKILL and reap the workers (they may be stuck in a point
        that timed out) and drop the executor."""
        with self._lock:
            self._drop(kill=True, wait=False)

    def close(self, kill: bool = False) -> None:
        """Join the workers, or kill them with ``kill``; start no more."""
        with self._lock:
            self._closed = True
            self._drop(kill=kill, wait=not kill)

    def _drop(self, kill: bool, wait: bool) -> None:
        executor, self._executor = self._executor, None
        if executor is None:
            return
        procs = list((executor._processes or {}).values()) if kill else []
        reaper = executor._executor_manager_thread
        executor.shutdown(wait=wait, cancel_futures=True)
        for proc in procs:
            proc.kill()
        if procs and reaper is not None:
            # The executor's manager thread reaps the killed workers.  A
            # second reaper here would race it for each pid, and a worker
            # it lost could still read as a live child after this returns.
            reaper.join(timeout=5.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def pool_scope(
    pool: Optional[WorkerPool], workers: int
) -> ContextManager[WorkerPool]:
    """``pool`` itself when the caller owns one, else a new pool the
    ``with`` block owns and closes.  A pool whose size is not
    ``workers`` raises :class:`ValueError`: ``workers`` stays the one
    size setting, and ``pool`` only chooses who owns the processes."""
    if pool is None:
        return WorkerPool(workers)
    if pool.workers != workers:
        raise ValueError(
            f"pool has {pool.workers} worker(s) but workers={workers}"
        )
    return contextlib.nullcontext(pool)


def _memoized_part(kind: str, part: Dict, build: Callable[[Dict], Any]) -> Any:
    """Deserialize ``part`` once per distinct content per process.

    The memo key is the canonical JSON of the already-parsed sub-dict —
    a pure content address, so two points whose system configs are equal
    share one frozen instance no matter how they were produced.
    """
    memo_key = kind + ":" + json.dumps(
        part, sort_keys=True, separators=(",", ":")
    )
    obj = _WORKER_MEMO.get(memo_key)
    if obj is None:
        if len(_WORKER_MEMO) >= _WORKER_MEMO_MAX:
            _WORKER_MEMO.clear()
        obj = build(part)
        _WORKER_MEMO[memo_key] = obj
    return obj


def execute_payload(payload_json: str) -> Dict:
    """Worker entry point: run one serialized sweep point to completion.

    Module-level (picklable) and JSON-in/dict-out so the process boundary
    never depends on pickling live simulator objects.
    """
    from repro.core.experiment import run_server
    from repro.core.serialize import from_dict

    payload = json.loads(payload_json)
    system = _memoized_part("system", payload["system"], from_dict)
    sim = _memoized_part("simulation", payload["simulation"], from_dict)
    job_part = payload.get("batch_job")
    job = (
        _memoized_part("batch_job", job_part, lambda p: BatchJobProfile(**p))
        if job_part is not None
        else None
    )
    result = run_server(system, sim, job, server_index=payload["server_index"])
    return server_result_to_dict(result)


def execute_payload_chunk(
    tasks: Sequence[Tuple[str, str]],
) -> List[Tuple[str, Optional[Dict], Optional[str]]]:
    """Worker entry point: run a contiguous chunk of sweep points.

    Submitting one pool task per *chunk* rather than per point amortizes
    the per-task overhead (payload pickling, future bookkeeping, result
    transfer, worker wake-up) that made a two-worker sweep of short
    points slower than the serial loop.  Failures stay per-point — one
    crashed point reports its error without poisoning its chunk-mates.

    ``execute_payload`` is resolved through the module global at call
    time so test monkeypatching reaches the chunked path too.  Result
    dicts go back as they are; the executor pickles them.
    """
    out: List[Tuple[str, Optional[Dict], Optional[str]]] = []
    for label, payload_json in tasks:
        try:
            out.append((label, execute_payload(payload_json), None))
        except Exception as exc:  # noqa: BLE001 - uniform retry handling
            out.append((label, None, f"{type(exc).__name__}: {exc}"))
    return out


@dataclass
class SweepOutcome:
    """Everything a sweep produced, in spec order."""

    #: Point label -> result, in enumeration order (dicts preserve it).
    results: Dict[str, ServerResult]
    #: Cache counters for this run (None when run uncached).
    cache_stats: Optional[CacheStats]
    #: Points actually simulated this run (cache misses).
    computed: int = 0
    #: Points served from the cache.
    from_cache: int = 0
    #: Points that needed more than one attempt after a crash/timeout.
    retried: int = 0
    elapsed_s: float = 0.0
    #: Label -> error string for first-attempt failures that then succeeded.
    retry_errors: Dict[str, str] = field(default_factory=dict)
    #: Label -> last error for points that exhausted their attempts and
    #: were quarantined instead of failing the sweep (``quarantine=True``
    #: only; quarantined points are absent from :attr:`results`).
    quarantined: Dict[str, str] = field(default_factory=dict)
    #: Times a broken process pool was detected and rebuilt.
    pool_rebuilds: int = 0


def _execute_batch(
    tasks: Sequence[Tuple[str, str]],
    pool: WorkerPool,
    task_timeout: Optional[float],
    chunk_size: Optional[int] = None,
) -> Tuple[Dict[str, Dict], Dict[str, str], int]:
    """Run (label, payload_json) tasks; return (results, failures,
    pool_rebuilds).

    One pool attempt: failures carry the error text and are left for the
    caller's retry logic.  Ordinary per-point exceptions are already
    isolated inside :func:`execute_payload_chunk`, so only hard events
    (worker crash, pool poisoning, chunk timeout) fail more than the
    guilty point.  A broken pool is detected, rebuilt (at most
    :data:`MAX_POOL_REBUILDS` times), and the not-yet-collected chunks
    are resubmitted to the fresh pool — a single dying worker degrades
    one chunk, not the whole batch.

    ``chunk_size`` overrides the default ~4-chunks-per-worker split; the
    retry path passes ``1`` so every retried point runs in isolation
    (poisoned-point containment and sibling salvage).
    """
    done: Dict[str, Dict] = {}
    failed: Dict[str, str] = {}
    rebuilds = 0
    if not tasks:
        return done, failed, rebuilds
    # One task runs in this process unless a timeout must be enforced:
    # only a pool worker can be abandoned (and terminated) mid-point.
    if pool.workers <= 1 or (len(tasks) == 1 and task_timeout is None):
        for label, payload_json in tasks:
            try:
                done[label] = execute_payload(payload_json)
            except Exception as exc:  # noqa: BLE001 - uniform retry handling
                failed[label] = f"{type(exc).__name__}: {exc}"
        return done, failed, rebuilds
    if chunk_size is None:
        # Contiguous chunks, ~4 per worker: big enough to amortize pool
        # IPC, small enough that an uneven point mix still load-balances.
        chunk_size = max(1, -(-len(tasks) // (pool.workers * 4)))
    chunks = [tasks[i:i + chunk_size] for i in range(0, len(tasks), chunk_size)]
    timed_out = False
    try:
        executor = pool.executor()
        futures = [(chunk, executor.submit(execute_payload_chunk, chunk))
                   for chunk in chunks]
        cursor = 0
        while cursor < len(futures):
            chunk, future = futures[cursor]
            cursor += 1
            timeout = task_timeout * len(chunk) if task_timeout is not None else None
            try:
                for label, result, err in future.result(timeout=timeout):
                    if err is None:
                        done[label] = result
                    else:
                        failed[label] = err
            except FutureTimeout:
                future.cancel()
                timed_out = True
                for label, _ in chunk:
                    failed[label] = (
                        f"chunk of {len(chunk)} timed out after {timeout}s"
                    )
            except BrokenProcessPool as exc:
                # The chunk that broke the pool is lost; everything queued
                # behind it is resubmitted to a fresh executor.
                for label, _ in chunk:
                    failed[label] = f"{type(exc).__name__}: {exc}"
                remaining = futures[cursor:]
                if rebuilds >= MAX_POOL_REBUILDS:
                    for lost_chunk, _ in remaining:
                        for label, _ in lost_chunk:
                            failed[label] = (
                                "process pool broke "
                                f"{rebuilds + 1} times; giving up this "
                                "attempt"
                            )
                    futures = []
                    cursor = 0
                    break
                rebuilds += 1
                executor = pool.executor()
                futures = [
                    (lost_chunk, executor.submit(execute_payload_chunk, lost_chunk))
                    for lost_chunk, _ in remaining
                ]
                cursor = 0
            except Exception as exc:  # noqa: BLE001 - crash inside future
                for label, _ in chunk:
                    failed[label] = f"{type(exc).__name__}: {exc}"
    finally:
        # A timed-out chunk's worker is still running it, and interpreter
        # exit would wait for it: kill the pool's workers (every other
        # chunk has been collected by now), so the next batch gets
        # fresh ones.
        if timed_out:
            pool.kill_workers()
    return done, failed, rebuilds


def run_sweep(
    spec: Union[SweepSpec, Sequence[SweepPoint]],
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    task_timeout: Optional[float] = None,
    verify_cached: bool = False,
    quarantine: bool = False,
    pool: Optional[WorkerPool] = None,
) -> SweepOutcome:
    """Execute every point of ``spec``; return results in spec order.

    ``workers=1`` runs the points in this process; ``workers > 1`` fans
    cache misses out over a process pool.  Results are collected per
    point, so the output is identical at any worker count.  ``pool`` is
    a :class:`WorkerPool` of size ``workers`` whose processes outlive
    the call; without one the call builds its own, used by every retry
    round and closed before it returns.  With a
    ``cache``, previously-computed points are served
    from disk and fresh results are stored back.  ``verify_cached=True``
    additionally recomputes every hit and insists on bit-identical output
    (see :class:`DeterminismError`).

    Only the points that failed re-run, each as its own singleton chunk,
    after each delay of :data:`RETRY_DELAYS_S`.  Points that exhaust
    every attempt raise :class:`SweepError` — unless
    ``quarantine=True``, which records them in
    :attr:`SweepOutcome.quarantined` (and omits them from the results)
    so one hopeless point cannot sink a million-point sweep.  Callers
    whose downstream digest covers *every* point (the cluster-scale
    runner) must keep quarantine off: silently missing servers would
    change results, not just slim them.
    """
    points: List[SweepPoint] = (
        list(spec.points()) if isinstance(spec, SweepSpec) else list(spec)
    )
    labels = [p.label for p in points]
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise ValueError(f"duplicate sweep point labels: {dupes}")
    scope = pool_scope(pool, workers)

    started = time.monotonic()
    # Split keys: payload_json() assembles each point's canonical JSON
    # from identity-memoized fragments of the shared config instances
    # (byte-identical to canonical_json(payload()), so identical keys),
    # and key_json() hashes the string without re-materializing the dict.
    payloads = {p.label: p.payload_json() for p in points}
    raw: Dict[str, Dict] = {}
    keys: Dict[str, str] = {}

    if cache is not None:
        for point in points:
            keys[point.label] = cache.key_json(payloads[point.label])
        hits = cache.get_many([keys[p.label] for p in points])
        for point in points:
            hit = hits.get(keys[point.label])
            if hit is not None:
                raw[point.label] = hit

    # ``is not None``, not truthiness: ResultCache defines __len__, so
    # ``if cache`` would walk the whole cache directory just to build the
    # outcome record.
    outcome = SweepOutcome(
        results={}, cache_stats=cache.stats if cache is not None else None
    )
    outcome.from_cache = len(raw)

    pending = [(p.label, payloads[p.label]) for p in points if p.label not in raw]
    if verify_cached and cache is not None:
        # Recompute hits alongside the misses; compare after collection.
        to_verify = [(lbl, payloads[lbl]) for lbl in raw]
    else:
        to_verify = []

    with scope as pool:
        done, failures, rebuilds = _execute_batch(
            pending + to_verify, pool, task_timeout
        )
        outcome.pool_rebuilds += rebuilds
        first_errors = dict(failures)
        for delay in RETRY_DELAYS_S:
            if not failures:
                break
            _sleep(delay)
            # Singleton chunks: each retried point runs in isolation, so
            # a poisoned point cannot take healthy siblings down with it
            # and every sibling's success is banked the moment it
            # completes.
            retry_done, failures, rebuilds = _execute_batch(
                [(lbl, payloads[lbl]) for lbl in failures],
                pool,
                task_timeout,
                chunk_size=1,
            )
            outcome.pool_rebuilds += rebuilds
            done.update(retry_done)
    if failures:
        if not quarantine:
            detail = "; ".join(f"{lbl}: {err}" for lbl, err in failures.items())
            raise SweepError(
                f"{len(failures)} sweep point(s) failed after "
                f"{len(RETRY_DELAYS_S) + 1} attempt(s): {detail}"
            )
        outcome.quarantined = dict(failures)
    recovered = {
        lbl: err for lbl, err in first_errors.items() if lbl not in failures
    }
    outcome.retried = len(recovered)
    outcome.retry_errors = recovered

    for label, _ in to_verify:
        if label in outcome.quarantined:
            continue  # recompute kept failing; the cached result stands
        fresh = done[label]
        if canonical_json(fresh) != canonical_json(raw[label]):
            raise DeterminismError(
                f"cached result for {label!r} is not bit-identical to a fresh "
                "recompute — a worker is consuming hidden non-deterministic "
                "state (global RNG, wall clock, ...)"
            )
    to_store: List[Tuple[str, str, Dict]] = []
    for label, _ in pending:
        if label in outcome.quarantined:
            continue
        raw[label] = done[label]
        outcome.computed += 1
        if cache is not None:
            # The canonical string goes straight to the store; the
            # payload tree is never re-parsed just to be re-serialized
            # into the entry.
            to_store.append((keys[label], payloads[label], done[label]))
    if cache is not None and to_store:
        cache.put_many(to_store)

    outcome.results = {
        lbl: server_result_from_dict(raw[lbl]) for lbl in labels if lbl in raw
    }
    outcome.elapsed_s = time.monotonic() - started
    return outcome
