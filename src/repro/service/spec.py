"""The job spec: one parser for the CLI, the service and the chaos soak.

A job is one of two shapes:

* ``{"kind": "sweep", ...}`` — a (systems x seeds) grid executed through
  :func:`repro.parallel.runner.run_sweep`;
* ``{"kind": "cluster", ...}`` — a sharded cluster-scale run executed
  through :func:`repro.cluster_scale.runner.run_cluster_scale`.

``python -m repro sweep`` and ``cluster`` build such a body from their
flags, :func:`repro.cluster_scale.chaos.run_chaos_soak` builds one for its
runs, and the service takes one as POSTed JSON.  All of them go through
:func:`parse_job_request`, so one body yields one set of configs, one job
id and one checkpoint run key whichever front end built it, and
:func:`repro.service.executor.run_job` runs it.

Parsing is strict:

* top-level keys the job's kind does not have, unknown simulation or
  cluster fields, and unknown systems, suites, routing policies or fault
  plans are rejected;
* every value must match its dataclass annotation: ``true`` is not an
  integer, an integer is a number (and a plain-form float field stores
  it as a float, so ``40`` and ``40.0`` give one job id), and ``null``
  is accepted only for an optional field;
* values that fail :class:`~repro.config.SimulationConfig` /
  :class:`~repro.cluster_scale.spec.ClusterScaleConfig` validation, or
  that do not build a valid system, are rejected;
* a sweep of more than :data:`~repro.parallel.sweep.MAX_SWEEP_POINTS`
  points (systems x seeds) is rejected before its points are expanded.

Each failure raises :class:`JobValidationError` carrying the *name of the
offending field*, which the HTTP layer returns in the 400 body and the
CLI prints before exiting 2.

Identity contract
-----------------

:meth:`JobRequest.identity` is the canonical, JSON-able description of
everything that determines the job's output — the fully-expanded sweep
point payloads (sweep) or the serialized system/simulation/cluster
configs plus batch-job roster (cluster).  The job id is the
:class:`~repro.parallel.cache.ResultCache` content hash of that identity
(``sha256(canonical_json(identity) + "\\n" + version)``), so:

* submitting the same configuration twice — from any number of
  concurrent clients — dedupes to the same job id and one underlying run;
* ``workers`` is *excluded*: results are bit-identical at any worker
  count, so a resubmission that only changes parallelism must hit the
  same job;
* a package version bump rolls every job id, exactly as it rolls every
  result-cache key.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from repro.config import SimulationConfig, SystemKind, TelemetryConfig

SYSTEM_NAMES = [k.value for k in SystemKind]

#: The top-level keys each kind of job body may carry.
BODY_KEYS = {
    "sweep": {"kind", "workers", "systems", "seeds", "simulation"},
    "cluster": {"kind", "workers", "system", "cluster", "simulation",
                "fault_plan", "harvest_base", "cooldown"},
}
JOB_KINDS = tuple(BODY_KEYS)

#: Upper bound on per-job process-pool workers a client may request.
MAX_JOB_WORKERS = 32

_SCALARS = {int: "an integer", float: "a number", bool: "true or false",
            str: "a string"}


class JobValidationError(ValueError):
    """A job payload (or ``--config`` file) failed validation.

    ``field`` names the offending field when it can be determined —
    the HTTP layer surfaces it in the 400 error body.
    """

    def __init__(self, field: Optional[str], message: str):
        self.field = field
        super().__init__(message)


def _blame_field(message: str, candidates) -> Optional[str]:
    """Best-effort field attribution for a config ``ValueError``: the
    first known field name that appears in the message."""
    for name in sorted(candidates, key=len, reverse=True):
        if name in message:
            return name
    return None


@lru_cache(maxsize=None)
def _hints(cls) -> Dict[str, Any]:
    return typing.get_type_hints(cls)


def _typed(cls, values: Dict[str, Any], cast: bool = True) -> Dict[str, Any]:
    """``values`` checked against ``cls``'s fields and their annotations
    (the type rule in the module doc).  With ``cast``, an integer given
    for a float field comes back as a float."""
    hints = _hints(cls)
    out = {}
    for name, value in values.items():
        hint = hints.get(name)
        if hint is None:
            raise JobValidationError(
                name, f"unknown {cls.__name__} field {name!r}; "
                      f"valid fields: {sorted(hints)}"
            )
        optional = type(None) in typing.get_args(hint)
        if optional:
            if value is None:
                out[name] = None
                continue
            hint = typing.get_args(hint)[0]
        if hint is float and type(value) is int:
            value = float(value) if cast else value
        elif not (type(value) is hint if hint in _SCALARS
                  else isinstance(value, hint)):
            expected = _SCALARS.get(hint, hint.__name__)
            raise JobValidationError(
                name, f"{name} must be {expected}"
                      + (" or null" if optional else "") + f", got {value!r}"
            )
        out[name] = value
    return out


def validate_simulation(sim: SimulationConfig) -> None:
    """Field-level sanity checks the frozen dataclass does not enforce.

    Raises :class:`JobValidationError` naming the offending field — the
    friendly alternative to a traceback from deep inside the arrival
    generator.  Values are taken as they are: an integer in a float field
    is accepted but not cast.
    """
    from repro.workloads.suites import SUITES

    fields = _hints(SimulationConfig)
    _typed(SimulationConfig, {name: getattr(sim, name) for name in fields},
           cast=False)
    if sim.seed < 0:
        raise JobValidationError("seed", f"seed must be non-negative, got {sim.seed}")
    if sim.horizon_ms <= 0:
        raise JobValidationError(
            "horizon_ms", f"horizon_ms must be positive, got {sim.horizon_ms}"
        )
    if not 0 <= sim.warmup_ms < sim.horizon_ms:
        raise JobValidationError(
            "warmup_ms",
            f"warmup_ms must be in [0, horizon_ms), got {sim.warmup_ms} "
            f"with horizon_ms={sim.horizon_ms}",
        )
    if sim.accesses_per_segment <= 0:
        raise JobValidationError(
            "accesses_per_segment",
            f"accesses_per_segment must be positive, got {sim.accesses_per_segment}",
        )
    if sim.load_scale <= 0:
        raise JobValidationError(
            "load_scale", f"load_scale must be positive, got {sim.load_scale}"
        )
    if sim.servers_to_simulate <= 0:
        raise JobValidationError(
            "servers_to_simulate",
            f"servers_to_simulate must be positive, got {sim.servers_to_simulate}",
        )
    if sim.requests_per_service is not None and sim.requests_per_service <= 0:
        raise JobValidationError(
            "requests_per_service",
            f"requests_per_service must be positive, got {sim.requests_per_service}",
        )
    if sim.trace_interval_ms <= 0:
        raise JobValidationError(
            "trace_interval_ms",
            f"trace_interval_ms must be positive, got {sim.trace_interval_ms}",
        )
    if sim.suite not in SUITES:
        raise JobValidationError(
            "suite", f"unknown suite {sim.suite!r}; choose from {sorted(SUITES)}"
        )


def build_simulation(data: Optional[Dict[str, Any]],
                     servers: int = 1) -> SimulationConfig:
    """Build a :class:`SimulationConfig` from a job body's object.

    Accepts either the full serialized form (``{"__type__":
    "SimulationConfig", ...}`` as written by ``--dump-config``) or a
    plain field dict.  The plain form applies the CLI's warmup rule when
    ``warmup_ms`` is omitted (``min(horizon_ms / 5, 100)``).
    """
    from repro.core.serialize import from_dict

    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise JobValidationError(
            "simulation", f"simulation must be an object, got {type(data).__name__}"
        )
    if "__type__" in data:
        try:
            sim = from_dict(data)
        except (ValueError, KeyError, TypeError) as exc:
            raise JobValidationError(
                _blame_field(str(exc), _hints(SimulationConfig)),
                f"bad simulation config: {exc}",
            ) from exc
        if not isinstance(sim, SimulationConfig):
            raise JobValidationError(
                "simulation", "serialized simulation is not a SimulationConfig"
            )
        # Cast as the plain form is, so both forms of one simulation get
        # one job id and one cache key.
        sim = SimulationConfig(**_typed(
            SimulationConfig,
            {name: getattr(sim, name) for name in _hints(SimulationConfig)},
        ))
    else:
        fields = dict(data)
        for key in ("faults", "client", "telemetry"):
            value = fields.get(key)
            if isinstance(value, dict):
                if "__type__" in value:
                    try:
                        fields[key] = from_dict(value)
                    except (ValueError, KeyError, TypeError) as exc:
                        raise JobValidationError(key, f"bad {key}: {exc}") from exc
                elif key == "telemetry":
                    # Not cast: telemetry objects hash as they were posted.
                    value = _typed(TelemetryConfig, value, cast=False)
                    try:
                        fields[key] = TelemetryConfig(**value)
                    except ValueError as exc:
                        raise JobValidationError("telemetry", str(exc)) from exc
                else:
                    raise JobValidationError(
                        key,
                        f"{key} must use the serialized form "
                        f'({{"__type__": ...}}) or be null',
                    )
        fields = _typed(SimulationConfig, fields)
        if "warmup_ms" not in fields:
            horizon = fields.get("horizon_ms", SimulationConfig().horizon_ms)
            fields["warmup_ms"] = min(horizon / 5, 100.0)
        fields.setdefault("servers_to_simulate", servers)
        sim = SimulationConfig(**fields)
    validate_simulation(sim)
    return sim


def _parse_seeds_value(value: Any) -> Tuple[int, ...]:
    from repro.parallel.sweep import parse_seeds

    if value is None:
        seeds = (SimulationConfig().seed,)
    elif isinstance(value, str):
        try:
            seeds = parse_seeds(value)
        except ValueError as exc:
            raise JobValidationError("seeds", f"bad seeds: {exc}") from exc
    elif type(value) is int:
        seeds = (value,)
    elif isinstance(value, list):
        if not value:
            raise JobValidationError("seeds", "seeds list is empty")
        bad = [s for s in value if type(s) is not int]
        if bad:
            raise JobValidationError("seeds", f"non-integer seed(s): {bad}")
        seeds = tuple(value)
    else:
        raise JobValidationError(
            "seeds", f'seeds must be a string ("0..7"), integer, or list, '
                     f"got {type(value).__name__}"
        )
    if min(seeds) < 0 or len(set(seeds)) != len(seeds):
        raise JobValidationError(
            "seeds", f"seeds must be distinct and non-negative, got {list(seeds)}"
        )
    return seeds


def _parse_workers(value: Any) -> int:
    if value is None:
        return 1
    if type(value) is not int:
        raise JobValidationError(
            "workers", f"workers must be an integer, got {value!r}"
        )
    if not 1 <= value <= MAX_JOB_WORKERS:
        raise JobValidationError(
            "workers", f"workers must be in [1, {MAX_JOB_WORKERS}], got {value}"
        )
    return value


@dataclass(frozen=True)
class JobRequest:
    """One validated, fully-resolved job: what every front end runs."""

    kind: str
    workers: int
    sim: SimulationConfig
    #: Sweep: preset system names, in submission order.
    systems: Tuple[str, ...] = ()
    seeds: Tuple[int, ...] = ()
    #: Cluster: the single system name and the datacenter-layer config.
    system: str = ""
    cluster: Optional[Any] = None  # ClusterScaleConfig; Any avoids import cycle
    #: Canned fault plan name a cluster job asked for (None = nominal).
    fault_plan: Optional[str] = None
    #: Cluster: starting harvest-VM base cores per server (None = the
    #: system preset's value).
    harvest_base: Optional[int] = None
    #: Cluster: epochs a crashed server stays out of routing (None = the
    #: fault plan's own setting).
    cooldown: Optional[int] = None

    # ------------------------------------------------------------------
    def points(self) -> List[Any]:
        """Sweep only: the fully-specified SweepPoints, in grid order."""
        from repro.core.presets import all_systems
        from repro.parallel.sweep import SweepSpec

        presets = all_systems()
        systems = {name: presets[name] for name in self.systems}
        return list(
            SweepSpec(systems=systems, seeds=self.seeds, sim=self.sim).points()
        )

    def cluster_system(self):
        """Cluster only: the resolved :class:`SystemConfig`."""
        from repro.core.presets import build_system

        system = build_system(SystemKind(self.system))
        if self.harvest_base is None:
            return system
        return dataclasses.replace(system, cluster=dataclasses.replace(
            system.cluster, harvest_vm_base_cores=self.harvest_base
        ))

    # ------------------------------------------------------------------
    def identity(self) -> Dict[str, Any]:
        """Everything that determines this job's output (see module doc).

        ``workers`` is deliberately absent: parallelism never changes
        results, so it must never split job ids.
        """
        from repro.core.serialize import to_dict

        if self.kind == "sweep":
            return {
                "service_job": "sweep",
                "points": [p.payload() for p in self.points()],
            }
        from repro.workloads.batch import BATCH_JOBS

        return {
            "service_job": "cluster",
            "system": to_dict(self.cluster_system()),
            "simulation": to_dict(self.sim),
            "cluster_scale": self.cluster.to_dict(),
            "batch_jobs": [dataclasses.asdict(job) for job in BATCH_JOBS],
        }

    def to_request_dict(self) -> Dict[str, Any]:
        """A normalized request body that re-parses to an equal request.

        This is what the job store persists, so a restarted service can
        rebuild and resume any queued job.
        """
        from repro.core.serialize import to_dict

        out: Dict[str, Any] = {
            "kind": self.kind,
            "workers": self.workers,
            "simulation": to_dict(self.sim),
        }
        if self.kind == "sweep":
            out["systems"] = list(self.systems)
            out["seeds"] = list(self.seeds)
        else:
            out["system"] = self.system
            cluster = self.cluster.to_dict()
            cluster.pop("fault_plan", None)
            out["cluster"] = cluster
            out["fault_plan"] = self.fault_plan
            out["harvest_base"] = self.harvest_base
            out["cooldown"] = self.cooldown
        return out


def _parse_sweep(body: Dict[str, Any], workers: int) -> JobRequest:
    from repro.core.presets import all_systems
    from repro.parallel.sweep import MAX_SWEEP_POINTS

    presets = all_systems()
    systems_value = body.get("systems", "all")
    if systems_value == "all":
        names = list(presets)
    elif isinstance(systems_value, str):
        names = [n.strip() for n in systems_value.split(",") if n.strip()]
    elif isinstance(systems_value, list) and all(
        isinstance(n, str) for n in systems_value
    ):
        names = list(systems_value)
    else:
        raise JobValidationError(
            "systems", f'systems must be "all", a comma string, or a list '
                       f"of names, got {systems_value!r}"
        )
    unknown = [n for n in names if n not in presets]
    if unknown:
        raise JobValidationError(
            "systems", f"unknown system(s) {unknown}; choose from {list(presets)}"
        )
    if not names:
        raise JobValidationError("systems", "no systems selected")
    seeds = _parse_seeds_value(body.get("seeds"))
    if len(names) * len(seeds) > MAX_SWEEP_POINTS:
        raise JobValidationError(
            "seeds", f"a sweep runs at most {MAX_SWEEP_POINTS} points, got "
                     f"{len(names)} system(s) x {len(seeds)} seed(s)"
        )
    sim = build_simulation(body.get("simulation"))
    return JobRequest(
        kind="sweep", workers=workers, sim=sim,
        systems=tuple(names), seeds=seeds,
    )


def _parse_cluster(body: Dict[str, Any], workers: int) -> JobRequest:
    from repro.cluster_scale.resilience import cluster_plan_names, get_cluster_plan
    from repro.cluster_scale.runner import _validate
    from repro.cluster_scale.spec import (
        ROUTING_POLICY_NAMES,
        ClusterScaleConfig,
        RoutingPolicy,
    )

    system_name = body.get("system", "HardHarvest-Block")
    if system_name not in SYSTEM_NAMES:
        raise JobValidationError(
            "system", f"unknown system {system_name!r}; choose from {SYSTEM_NAMES}"
        )
    cluster_data = body.get("cluster") or {}
    if not isinstance(cluster_data, dict):
        raise JobValidationError(
            "cluster", f"cluster must be an object, got {type(cluster_data).__name__}"
        )
    fields = {k: v for k, v in cluster_data.items() if k != "fault_plan"}
    if "routing" in fields:
        if fields["routing"] not in ROUTING_POLICY_NAMES:
            raise JobValidationError(
                "routing", f"unknown routing policy {fields['routing']!r}; "
                           f"choose from {list(ROUTING_POLICY_NAMES)}"
            )
        fields["routing"] = RoutingPolicy(fields["routing"])
    fields = _typed(ClusterScaleConfig, fields)
    extras = _typed(JobRequest, {
        "fault_plan": body.get("fault_plan", cluster_data.get("fault_plan")),
        "harvest_base": body.get("harvest_base"),
        "cooldown": body.get("cooldown"),
    })

    servers = fields.get("servers", ClusterScaleConfig().servers)
    if servers <= 0:
        raise JobValidationError("servers", f"servers must be positive, got {servers}")
    sim = build_simulation(body.get("simulation"), servers=servers)
    fields.setdefault("epoch_ms", sim.horizon_ms)
    fields.setdefault("warmup_ms", sim.warmup_ms)

    plan_name, cooldown = extras["fault_plan"], extras["cooldown"]
    if plan_name is not None:
        try:
            plan = get_cluster_plan(
                plan_name, servers, fields.get("epochs", ClusterScaleConfig().epochs)
            )
        except KeyError:
            raise JobValidationError(
                "fault_plan", f"unknown fault plan {plan_name!r}; choose from "
                              f"{cluster_plan_names()}"
            ) from None
        if cooldown is not None:
            try:
                plan = dataclasses.replace(plan, cooldown_epochs=cooldown)
            except ValueError as exc:
                raise JobValidationError("cooldown", str(exc)) from exc
        fields["fault_plan"] = plan
    elif cooldown is not None:
        raise JobValidationError("cooldown", "cooldown needs a fault_plan")
    try:
        cfg = ClusterScaleConfig(**fields)
    except ValueError as exc:
        raise JobValidationError(
            _blame_field(str(exc), _hints(ClusterScaleConfig)),
            f"bad cluster config: {exc}",
        ) from exc
    request = JobRequest(
        kind="cluster", workers=workers, sim=sim,
        system=system_name, cluster=cfg, **extras,
    )
    harvest_base = request.harvest_base
    if harvest_base is not None and harvest_base <= 0:
        raise JobValidationError(
            "harvest_base", f"harvest_base must be positive, got {harvest_base}"
        )
    try:
        system = request.cluster_system()
    except ValueError as exc:
        raise JobValidationError(
            "harvest_base", f"harvest_base={harvest_base}: {exc}"
        ) from exc
    # Core-budget check the runner would otherwise raise mid-job.
    try:
        _validate(system, cfg)
    except ValueError as exc:
        raise JobValidationError("harvest_max_cores", str(exc)) from exc
    return request


def parse_job_request(body: Any) -> JobRequest:
    """Parse and validate one job body; raises
    :class:`JobValidationError` with the offending field named."""
    if not isinstance(body, dict):
        raise JobValidationError(
            None, f"job body must be a JSON object, got {type(body).__name__}"
        )
    kind = body.get("kind")
    if kind not in JOB_KINDS:
        raise JobValidationError(
            "kind", f"kind must be one of {list(JOB_KINDS)}, got {kind!r}"
        )
    unknown = sorted(set(body) - BODY_KEYS[kind])
    if unknown:
        raise JobValidationError(
            unknown[0], f"unknown {kind} job field(s) {unknown}; "
                        f"valid fields: {sorted(BODY_KEYS[kind])}"
        )
    workers = _parse_workers(body.get("workers"))
    if kind == "sweep":
        return _parse_sweep(body, workers)
    return _parse_cluster(body, workers)


def job_content_id(request: JobRequest, cache=None) -> str:
    """The job id: the :class:`ResultCache` content hash of the job's
    identity payload (duplicate submissions collide by construction)."""
    from repro.parallel.cache import ResultCache

    # Not ``cache or ...``: a cache with no entries on disk is falsy.
    if cache is None:
        cache = ResultCache()
    return cache.key(request.identity())
