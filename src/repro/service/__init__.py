"""Simulation-as-a-service: an HTTP job API over the runners.

Submit a :class:`~repro.config.SimulationConfig` sweep or a
:class:`~repro.cluster_scale.spec.ClusterScaleConfig` run as JSON, get a
content-addressed job id back, poll it, download the result (digest-
identical to the CLI on the same config) and the Perfetto trace, scrape
Prometheus metrics.  ``python -m repro serve`` starts it; see
``docs/api.md`` for the endpoint contract.

* :mod:`repro.service.spec` — request parsing/validation + job identity;
* :mod:`repro.service.jobs` — persistent records, store, JobManager;
* :mod:`repro.service.executor` — bridges claimed jobs onto the runners;
* :mod:`repro.service.metrics` — Prometheus text exposition;
* :mod:`repro.service.http` — threaded HTTP front end, job slots and
  graceful shutdown;
* :mod:`repro.service.client` — stdlib client used by tests and CI.

Names are exported lazily: ``from repro.service import parse_job_request``
imports only :mod:`repro.service.spec`, so the CLI, which parses every
command through the job spec, does not load ``http.server`` or the
service's HTTP front end.
"""

import importlib

#: Submodule -> the names it exports, loaded on first access.
_EXPORTS = {
    "client": ("ServiceClient", "ServiceError"),
    "http": ("JobService", "ServiceHandle", "start_in_thread"),
    "jobs": ("JobManager", "JobRecord", "JobStore", "QueueFullError", "prune_job_records"),
    "spec": (
        "JobRequest",
        "JobValidationError",
        "job_content_id",
        "parse_job_request",
        "validate_simulation",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
