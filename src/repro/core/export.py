"""Result export: write experiment results as CSV or JSON artifacts.

Downstream users typically post-process results (plotting, regression
tracking); these helpers give them stable, flat file formats:

* :func:`result_to_json` / :func:`write_json` — full nested result.
* :func:`latency_rows` / :func:`write_latency_csv` — one row per
  (system, service) with p50/p99/mean.
* :func:`write_samples_csv` — raw latency samples from a live simulation
  (for CDFs and custom percentiles).
* :func:`server_result_to_dict` / :func:`server_result_from_dict` —
  *lossless* round trip (breakdowns stay in integer ns) used by the
  :mod:`repro.parallel` result cache, where cached and recomputed results
  must compare bit-identical.
* :func:`write_sweep_json` / :func:`write_sweep_csv` — sweep results keyed
  by point label (``python -m repro sweep`` artifacts).
"""

from __future__ import annotations

import csv
import hashlib
import json
from typing import Dict, Iterable, List

from repro.cluster.server import ServerSimulation
from repro.core.ioutil import atomic_open, canonical_json
from repro.core.metrics import ServerResult
from repro.sim.stats import Breakdown


def result_to_json(result: ServerResult) -> Dict:
    """Flatten a :class:`ServerResult` into JSON-serializable types."""
    return {
        "system": result.system,
        "batch_job": result.batch_job,
        "simulated_seconds": result.simulated_seconds,
        "avg_busy_cores": result.avg_busy_cores,
        "batch_units_per_s": result.batch_units_per_s,
        "l2_hit_rate": result.l2_hit_rate,
        "latency_ms": {
            svc: {
                "p50": result.p50_ms[svc],
                "p99": result.p99_ms[svc],
                "mean": result.mean_ms[svc],
            }
            for svc in result.p99_ms
        },
        "breakdown_ms": {
            svc: {
                "reassign": b.reassign_ns / 1e6,
                "flush": b.flush_ns / 1e6,
                "execution": b.execution_ns / 1e6,
                "queueing": b.queueing_ns / 1e6,
            }
            for svc, b in result.breakdown.items()
        },
        "counters": dict(result.counters),
        "resilience": dict(result.resilience),
    }


def write_json(path: str, results: Iterable[ServerResult]) -> None:
    with atomic_open(path) as fh:
        json.dump([result_to_json(r) for r in results], fh, indent=2)


def latency_rows(results: Iterable[ServerResult]) -> List[Dict]:
    """One flat row per (system, service)."""
    rows = []
    for result in results:
        for svc in result.p99_ms:
            rows.append(
                {
                    "system": result.system,
                    "service": svc,
                    "p50_ms": result.p50_ms[svc],
                    "p99_ms": result.p99_ms[svc],
                    "mean_ms": result.mean_ms[svc],
                }
            )
    return rows


def write_latency_csv(path: str, results: Iterable[ServerResult]) -> None:
    rows = latency_rows(results)
    if not rows:
        raise ValueError("no results to export")
    with atomic_open(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def server_result_to_dict(result: ServerResult) -> Dict:
    """Lossless encoding of a :class:`ServerResult` into JSON-able types.

    Unlike :func:`result_to_json` (which converts breakdowns to ms floats
    for human consumption), this keeps every field at its native precision
    so ``server_result_from_dict(server_result_to_dict(r)) == r`` exactly.
    """
    return {
        "system": result.system,
        "batch_job": result.batch_job,
        "p99_ms": dict(result.p99_ms),
        "p50_ms": dict(result.p50_ms),
        "mean_ms": dict(result.mean_ms),
        "breakdown": {
            svc: {
                "reassign_ns": b.reassign_ns,
                "flush_ns": b.flush_ns,
                "execution_ns": b.execution_ns,
                "queueing_ns": b.queueing_ns,
            }
            for svc, b in result.breakdown.items()
        },
        "avg_busy_cores": result.avg_busy_cores,
        "batch_units_per_s": result.batch_units_per_s,
        "l2_hit_rate": result.l2_hit_rate,
        "counters": dict(result.counters),
        "simulated_seconds": result.simulated_seconds,
        "resilience": dict(result.resilience),
    }


def server_result_from_dict(data: Dict) -> ServerResult:
    """Inverse of :func:`server_result_to_dict`."""
    return ServerResult(
        system=data["system"],
        batch_job=data["batch_job"],
        p99_ms=dict(data["p99_ms"]),
        p50_ms=dict(data["p50_ms"]),
        mean_ms=dict(data["mean_ms"]),
        breakdown={
            svc: Breakdown(**fields) for svc, fields in data["breakdown"].items()
        },
        avg_busy_cores=data["avg_busy_cores"],
        batch_units_per_s=data["batch_units_per_s"],
        l2_hit_rate=data["l2_hit_rate"],
        counters=dict(data["counters"]),
        simulated_seconds=data["simulated_seconds"],
        # .get: results cached before the resilience field existed.
        resilience=dict(data.get("resilience", {})),
    )


def sweep_results_digest(results: Dict[str, ServerResult]) -> str:
    """sha256 over the canonical JSON of the lossless sweep encoding.

    This is *the* sweep determinism fingerprint: the CLI stamps it into
    ``--stats-json`` and the job service stamps it into every sweep
    result, so "service output == CLI output" reduces to string equality.
    Labels participate (they carry system name and seed), wall time and
    cache provenance do not.
    """
    payload = {label: server_result_to_dict(r) for label, r in results.items()}
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def write_sweep_json(path: str, results: Dict[str, ServerResult]) -> None:
    """Write sweep results keyed by point label (lossless encoding)."""
    payload = {label: server_result_to_dict(r) for label, r in results.items()}
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)


def write_sweep_csv(path: str, results: Dict[str, ServerResult]) -> None:
    """One flat row per (point label, service) with the headline metrics."""
    if not results:
        raise ValueError("no results to export")
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["label", "system", "batch_job", "service", "p50_ms", "p99_ms",
             "mean_ms", "avg_busy_cores", "batch_units_per_s"]
        )
        for label, result in results.items():
            for svc in result.p99_ms:
                writer.writerow(
                    [label, result.system, result.batch_job, svc,
                     result.p50_ms[svc], result.p99_ms[svc],
                     result.mean_ms[svc], result.avg_busy_cores,
                     result.batch_units_per_s]
                )


def write_cluster_scale_json(path: str, result) -> None:
    """Write a :class:`~repro.cluster_scale.result.ClusterScaleResult`
    losslessly (its ``to_dict`` keeps per-server results at native
    precision and excludes wall time, so the file's content is exactly
    what the run digest covers)."""
    with atomic_open(path) as fh:
        json.dump(result.to_dict(), fh, indent=2)


def write_cluster_scale_csv(path: str, result) -> None:
    """One flat row per (epoch, server) with the headline metrics."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "server", "system", "batch_job", "load_scale",
             "harvest_cores", "requests_measured", "avg_p99_ms",
             "avg_p50_ms", "avg_busy_cores", "batch_units_per_s"]
        )
        for epoch in result.epochs:
            for i, server in enumerate(epoch.cluster.servers):
                writer.writerow(
                    [epoch.epoch, i, server.system, server.batch_job,
                     epoch.load_scale[i], epoch.harvest_alloc[i],
                     server.counters.get("requests_measured", 0),
                     server.avg_p99_ms(), server.avg_p50_ms(),
                     server.avg_busy_cores, server.batch_units_per_s]
                )


def write_samples_csv(path: str, sim: ServerSimulation) -> int:
    """Dump raw per-request latency samples (ns) from a live simulation.

    Returns the number of samples written. Use :func:`run_server_raw` to
    keep the simulation object.
    """
    total = 0
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["service", "latency_ns"])
        for name, recorder in sim.latency.items():
            for sample in recorder.samples():
                writer.writerow([name, int(sample)])
                total += 1
    return total
