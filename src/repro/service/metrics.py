"""Prometheus text-format exposition for ``GET /metrics``.

Hand-rendered (stdlib only), following the exposition format spec:
``# HELP`` / ``# TYPE`` per family, then ``name{labels} value`` samples.
Families:

* ``repro_service_*`` — queue depth, jobs by state, submission /
  dedupe / rejection / completion counters, worker utilization, uptime;
* ``repro_cache_*`` — ResultCache hits/misses/stores/invalidations and
  skipped stores, accumulated across every job the service has run;
* ``repro_last_job_*`` / ``repro_probe_*`` — gauges from the most
  recently completed job (wall time, mean p99, busy cores, telemetry
  trace-event count), the hook learned-policy consumers poll.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

import repro
from repro.service.jobs import JOB_STATES, JobManager


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class MetricsRegistry:
    """Snapshot-and-render facade over the manager's counters."""

    def __init__(self, manager: JobManager, service_workers: int):
        self.manager = manager
        self.service_workers = service_workers
        self.started_s = time.time()
        #: Worker slots currently executing a job (maintained by the
        #: HTTP layer's worker loops).
        self.busy_workers = 0
        #: Summary dict from :func:`execute_job` for the last finished job.
        self.last_job: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def render(self) -> str:
        lines: List[str] = []

        def family(name: str, kind: str, help_text: str, samples) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, value in samples:
                label_s = (
                    "{"
                    + ",".join(
                        f'{k}="{_escape(str(v))}"' for k, v in labels.items()
                    )
                    + "}"
                    if labels
                    else ""
                )
                lines.append(f"{name}{label_s} {value}")

        manager = self.manager
        counts = manager.counts()
        cache = manager.cache_totals()

        family(
            "repro_service_info", "gauge",
            "Static service metadata.",
            [({"version": repro.__version__}, 1)],
        )
        family(
            "repro_service_uptime_seconds", "gauge",
            "Seconds since the service process started.",
            [({}, time.time() - self.started_s)],
        )
        family(
            "repro_service_queue_depth", "gauge",
            "Jobs admitted but not yet claimed by a worker.",
            [({}, manager.queue_depth())],
        )
        family(
            "repro_service_jobs", "gauge",
            "Known jobs by lifecycle state.",
            [({"state": state}, counts[state]) for state in JOB_STATES],
        )
        family(
            "repro_service_submissions_total", "counter",
            "POST /jobs bodies admitted (including dedupes and retries).",
            [({}, manager.submitted + manager.deduped)],
        )
        family(
            "repro_service_deduped_total", "counter",
            "Submissions that deduped onto an existing job id.",
            [({}, manager.deduped)],
        )
        family(
            "repro_service_rejected_total", "counter",
            "Submissions rejected by admission control (queue full).",
            [({}, manager.rejected)],
        )
        family(
            "repro_service_jobs_completed_total", "counter",
            "Jobs that finished successfully.",
            [({}, manager.completed)],
        )
        family(
            "repro_service_jobs_failed_total", "counter",
            "Jobs that raised during execution.",
            [({}, manager.failed)],
        )
        family(
            "repro_service_jobs_resumed_total", "counter",
            "Queued/interrupted jobs re-enqueued from disk at startup.",
            [({}, manager.resumed)],
        )
        family(
            "repro_service_jobs_evicted_total", "counter",
            "Terminal job records evicted past the --job-ttl-s TTL.",
            [({}, manager.evicted)],
        )
        family(
            "repro_service_workers", "gauge",
            "Configured worker slots.",
            [({}, self.service_workers)],
        )
        family(
            "repro_service_workers_busy", "gauge",
            "Worker slots currently executing a job.",
            [({}, self.busy_workers)],
        )

        family(
            "repro_cache_hits_total", "counter",
            "ResultCache hits across all jobs run by this service.",
            [({}, cache.hits)],
        )
        family(
            "repro_cache_misses_total", "counter",
            "ResultCache misses across all jobs run by this service.",
            [({}, cache.misses)],
        )
        family(
            "repro_cache_stores_total", "counter",
            "ResultCache stores across all jobs run by this service.",
            [({}, cache.stores)],
        )
        family(
            "repro_cache_store_failures_total", "counter",
            "ResultCache stores skipped on a write error (results kept).",
            [({}, cache.store_failures)],
        )
        family(
            "repro_cache_invalidations_total", "counter",
            "ResultCache entries dropped as corrupt or version-stale.",
            [({}, cache.invalidations)],
        )
        family(
            "repro_cache_hit_ratio", "gauge",
            "hits / (hits + misses) across all jobs; 0 before any lookup.",
            [({}, cache.hit_rate())],
        )

        last = self.last_job
        if last is not None:
            family(
                "repro_last_job_elapsed_seconds", "gauge",
                "Wall time of the most recently completed job.",
                [({"kind": last["kind"]}, last["elapsed_s"])],
            )
            family(
                "repro_last_job_avg_p99_ms", "gauge",
                "Mean per-service p99 latency of the last completed job.",
                [({}, last["avg_p99_ms"])],
            )
            family(
                "repro_last_job_avg_busy_cores", "gauge",
                "Mean busy cores of the last completed job.",
                [({}, last["avg_busy_cores"])],
            )
            family(
                "repro_probe_trace_events", "gauge",
                "Perfetto trace events exported for the last job "
                "(0 when telemetry was off).",
                [({}, last["trace_events"])],
            )
        return "\n".join(lines) + "\n"
