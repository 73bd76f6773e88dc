"""Job execution: bridge one claimed job onto the hardened runners.

This is plain synchronous code — each service slot runs it on the
slot's own thread.  Each job gets its *own*
:class:`ResultCache` instance over the shared cache root: the on-disk
store is concurrency-safe (atomic writes, content-addressed), but the
per-instance hit/miss counters are not, so per-job instances keep the
numbers exact and :meth:`JobManager.fold_cache_stats` aggregates them.

:func:`run_job` maps a parsed :class:`JobRequest` onto its runner for
both front ends: the service calls it here and ``python -m repro sweep``
/ ``cluster`` call it directly, so a job result and ``--stats-json``
take their digest from the same code
(:func:`repro.core.export.sweep_results_digest` for a sweep,
``ClusterScaleResult.digest()`` for a cluster).  The tests and CI check
the equality end to end.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.parallel.cache import ResultCache
from repro.service.jobs import JobRecord, JobStore
from repro.service.spec import JobRequest


def _telemetry_enabled(request: JobRequest) -> bool:
    return request.sim.telemetry is not None and request.sim.telemetry.enabled


def _export_trace(request: JobRequest, store: JobStore, job_id: str) -> int:
    """Re-run the job's first point with the live-object API and write a
    Perfetto trace next to the result.

    Telemetry is zero-perturbation (results are bit-identical on/off),
    so this extra serial run costs wall time but cannot change what the
    job returns; it exists because the process-pool runners only ship
    serialized results back, never live tracer objects.
    """
    from repro.core.experiment import run_server_raw
    from repro.telemetry.export import write_perfetto_json

    if request.kind == "sweep":
        point = request.points()[0]
        sim = run_server_raw(
            point.system, point.sim, batch_job=point.batch_job,
            server_index=point.server_index,
        )
    else:
        sim = run_server_raw(request.cluster_system(), request.sim)
    try:
        vm_names = {vm.vm_id: vm.name for vm in sim.primary_vms}
        for hvm in sim.harvest_vms:
            vm_names[hvm.vm_id] = hvm.name
        return write_perfetto_json(
            store.trace_path(job_id), sim.tracer.events(), vm_names, len(sim.cores)
        )
    finally:
        # The service is long-lived: free the run now, not at a collection.
        sim.close()


def run_job(
    request: JobRequest,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[str], None]] = None,
    task_timeout: Optional[float] = None,
    verify_cached: bool = False,
    checkpoint=None,
    pool=None,
) -> Tuple[Any, str]:
    """Run one parsed job on its runner with ``request.workers`` pool
    workers; return ``(outcome, digest)``.

    ``outcome`` is a :class:`~repro.parallel.runner.SweepOutcome` or a
    :class:`~repro.cluster_scale.result.ClusterScaleResult`; ``digest`` is
    what ``--stats-json`` and a service job result report.  The other
    arguments are run settings and, like ``workers``, never enter the
    job's identity: ``verify_cached`` applies to sweeps and
    ``checkpoint`` (a :class:`~repro.cluster_scale.resilience.
    CheckpointStore`) to cluster jobs.  ``pool`` is a
    :class:`~repro.parallel.runner.WorkerPool` of size
    ``request.workers`` that outlives the job (a service slot's);
    without one the runner builds and closes its own.
    """
    if request.kind == "sweep":
        from repro.core.export import sweep_results_digest
        from repro.parallel.runner import run_sweep

        points = request.points()
        if progress is not None:
            progress(f"sweep: {len(points)} point(s), workers={request.workers}")
        outcome = run_sweep(
            points, workers=request.workers, cache=cache,
            task_timeout=task_timeout, verify_cached=verify_cached,
            pool=pool,
        )
        return outcome, sweep_results_digest(outcome.results)
    from repro.cluster_scale.runner import run_cluster_scale

    result = run_cluster_scale(
        request.cluster_system(),
        sim=request.sim,
        cfg=request.cluster,
        workers=request.workers,
        cache=cache,
        task_timeout=task_timeout,
        progress=progress,
        checkpoint=checkpoint,
        pool=pool,
    )
    return result, result.digest()


def execute_job(
    record: JobRecord,
    request: JobRequest,
    store: JobStore,
    cache_root: Optional[str],
    progress: Optional[Callable[[str], None]] = None,
    pool=None,
) -> Dict[str, Any]:
    """Run one claimed job to completion; persist result (and trace).

    ``pool`` is the service slot's :class:`~repro.parallel.runner.
    WorkerPool` (None for a ``workers=1`` job), passed to :func:`run_job`.
    Returns a small summary for the metrics endpoint:
    ``{"digest", "kind", "elapsed_s", "avg_p99_ms", "avg_busy_cores",
    "trace_events", "cache_stats"}``.  Exceptions propagate to the
    caller, which marks the job failed.
    """
    from repro.core.export import server_result_to_dict

    notify = progress or (lambda message: None)
    cache = ResultCache(root=cache_root) if cache_root is not None else None
    outcome, digest = run_job(request, cache, notify, pool=pool)
    if request.kind == "sweep":
        results = {
            label: server_result_to_dict(r) for label, r in outcome.results.items()
        }
        payload = {
            "kind": "sweep",
            "digest": digest,
            "points": len(results),
            "computed": outcome.computed,
            "from_cache": outcome.from_cache,
            "retried": outcome.retried,
            "elapsed_s": outcome.elapsed_s,
            "results": results,
        }
        p99s = [
            p99 for r in results.values() for p99 in r["p99_ms"].values()
        ]
        avg_p99 = sum(p99s) / len(p99s) if p99s else 0.0
        busy = [r["avg_busy_cores"] for r in results.values()]
        avg_busy = sum(busy) / len(busy) if busy else 0.0
    else:
        payload = {
            "kind": "cluster",
            "digest": digest,
            "servers": request.cluster.servers,
            "epochs": request.cluster.epochs,
            "summary": outcome.summary_dict(),
            "resilience_curve": outcome.resilience_curve(),
            "elapsed_s": outcome.elapsed_s,
            "result": outcome.to_dict(),
        }
        avg_p99 = payload["summary"]["avg_p99_ms"]
        avg_busy = payload["summary"]["avg_busy_cores"]

    trace_events = 0
    if _telemetry_enabled(request):
        notify("exporting telemetry trace")
        trace_events = _export_trace(request, store, record.job_id)
    payload["trace_events"] = trace_events
    store.write_result(record.job_id, payload)
    return {
        "digest": payload["digest"],
        "kind": payload["kind"],
        "elapsed_s": payload["elapsed_s"],
        "avg_p99_ms": avg_p99,
        "avg_busy_cores": avg_busy,
        "trace_events": trace_events,
        "cache_stats": cache.stats if cache is not None else None,
    }
