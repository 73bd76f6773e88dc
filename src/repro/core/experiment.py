"""Experiment driver: build a system, run servers, summarize results.

This is the public entry point a downstream user touches::

    from repro import SystemKind, SimulationConfig, run_server
    result = run_server(build_system(SystemKind.HARDHARVEST_BLOCK),
                        SimulationConfig(requests_per_service=1000))
    print(result.avg_p99_ms())

``run_cluster`` reproduces the paper's 8-server setup: servers are
independent (microservices never talk across servers, Section 5), each
hosting all eight Primary services and one Harvest VM with a *different*
batch application.

Both ``run_systems`` and ``run_cluster`` accept ``workers=`` and
``cache=``: with either set, the runs are routed through
:mod:`repro.parallel` — fanned out over a process pool and/or served from
the content-addressed result cache — with bit-identical results to the
serial path (the simulator is deterministic and servers/systems are
independent).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.cluster.server import ServerSimulation
from repro.config import SimulationConfig, SystemConfig
from repro.core.metrics import ClusterResult, ServerResult
from repro.sim.units import SEC
from repro.workloads.batch import BATCH_JOBS, BatchJobProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.cache import ResultCache


def summarize(sim: ServerSimulation) -> ServerResult:
    """Extract the figure-facing metrics from a completed run.

    Services with zero measured completions are omitted from the latency
    maps rather than raising: a crashed or traffic-starved server (fault
    plans route around casualties at a trickle load) legitimately ends an
    epoch without completing every service.  Nominal runs always record
    samples, so their results are unchanged.
    """
    measured = {
        name: rec for name, rec in sim.latency.items() if rec.count > 0
    }
    p99 = {name: rec.p99() / 1e6 for name, rec in measured.items()}
    p50 = {name: rec.p50() / 1e6 for name, rec in measured.items()}
    mean = {name: rec.mean() / 1e6 for name, rec in measured.items()}
    breakdown = {key: sim.breakdowns.mean(key) for key in sim.breakdowns.keys()}
    return ServerResult(
        system=sim.system.name,
        batch_job=sim.harvest_vm.name,
        p99_ms=p99,
        p50_ms=p50,
        mean_ms=mean,
        breakdown=breakdown,
        avg_busy_cores=sim.average_busy_cores(),
        batch_units_per_s=sim.batch_throughput_per_s(),
        l2_hit_rate=sim.l2_primary_hit_rate(),
        counters=sim.counters.as_dict(),
        simulated_seconds=sim.end_ns / SEC,
        resilience=sim.resilience_summary(),
    )


def run_server(
    system: SystemConfig,
    simcfg: Optional[SimulationConfig] = None,
    batch_job: Optional[BatchJobProfile] = None,
    server_index: int = 0,
) -> ServerResult:
    """Simulate one server to completion and summarize it.

    Build, run, summarize, close: the simulation is closed (see
    :meth:`ServerSimulation.close`) even when its run raises, so a pool
    worker frees each finished point by reference counting instead of
    holding it until a full collection.
    """
    sim = ServerSimulation(system, simcfg or SimulationConfig(), batch_job, server_index)
    try:
        sim.run()
        return summarize(sim)
    finally:
        sim.close()


def run_server_raw(
    system: SystemConfig,
    simcfg: Optional[SimulationConfig] = None,
    batch_job: Optional[BatchJobProfile] = None,
    server_index: int = 0,
) -> ServerSimulation:
    """Like :func:`run_server` but returns the live simulation object
    (for experiments that inspect caches, traces, or queues).

    With ``simcfg.telemetry`` enabled, the returned simulation exposes the
    span tracer as ``.tracer`` (ring buffer of lifecycle events) and the
    gauge series as ``.probes``; both are ``None`` when telemetry is off.

    The simulation is not closed: a long-lived caller should call its
    :meth:`~ServerSimulation.close` once done with it, or it stays cyclic
    garbage until the next full collection.
    """
    sim = ServerSimulation(system, simcfg or SimulationConfig(), batch_job, server_index)
    sim.run()
    return sim


def _cluster_points(
    system: SystemConfig,
    simcfg: SimulationConfig,
    jobs: Sequence[BatchJobProfile],
):
    """One :class:`~repro.parallel.sweep.SweepPoint` per simulated server.

    The single source of truth for the cluster fan-out: the serial loop,
    the process pool, and the result cache all run exactly these points,
    which is what keeps their results bit-identical.
    """
    from repro.parallel.sweep import SweepPoint

    return [
        SweepPoint(
            label=f"server={i}",
            system=system,
            sim=simcfg,
            batch_job=jobs[i % len(jobs)],
            server_index=i,
        )
        for i in range(simcfg.servers_to_simulate)
    ]


def run_cluster(
    system: SystemConfig,
    simcfg: Optional[SimulationConfig] = None,
    batch_jobs: Optional[Sequence[BatchJobProfile]] = None,
    parallel: bool = False,
    workers: Optional[int] = None,
    cache: Optional["ResultCache"] = None,
) -> ClusterResult:
    """Simulate ``simcfg.servers_to_simulate`` independent servers.

    Server ``i`` runs batch job ``i`` (mod 8), mirroring the paper's
    one-batch-application-per-server cluster — servers never communicate
    (Section 5), which is also why the servers can be farmed out to a
    process pool (exactly as the authors parallelized their SST runs)
    without changing any result.  ``workers=N`` routes through
    :func:`repro.parallel.run_sweep` (optionally with a ``cache``);
    ``parallel=True`` is the legacy spelling of ``workers=8`` (the pool
    never exceeds the number of servers).
    """
    simcfg = simcfg or SimulationConfig()
    jobs = list(batch_jobs or BATCH_JOBS)
    points = _cluster_points(system, simcfg, jobs)
    if parallel and workers is None:
        workers = 8
    if workers is not None or cache is not None:
        from repro.parallel.runner import run_sweep

        outcome = run_sweep(points, workers=workers or 1, cache=cache)
        return ClusterResult(
            system=system.name, servers=list(outcome.results.values())
        )
    return ClusterResult(
        system=system.name,
        servers=[
            run_server(p.system, p.sim, p.batch_job, server_index=p.server_index)
            for p in points
        ],
    )


def run_systems(
    systems: Dict[str, SystemConfig],
    simcfg: Optional[SimulationConfig] = None,
    batch_job: Optional[BatchJobProfile] = None,
    workers: Optional[int] = None,
    cache: Optional["ResultCache"] = None,
) -> Dict[str, ServerResult]:
    """Run several systems on the identical workload (same seed) and return
    results keyed by system name — the shape every comparison figure needs.

    ``workers=N`` fans the systems out over a process pool and ``cache=``
    serves repeats from the content-addressed result cache; both produce
    results bit-identical to the serial path.
    """
    if workers is not None or cache is not None:
        from repro.parallel.runner import run_sweep
        from repro.parallel.sweep import SweepPoint

        points = [
            SweepPoint(
                label=name,
                system=cfg,
                sim=simcfg or SimulationConfig(),
                batch_job=batch_job,
            )
            for name, cfg in systems.items()
        ]
        return dict(run_sweep(points, workers=workers or 1, cache=cache).results)
    return {
        name: run_server(cfg, simcfg, batch_job) for name, cfg in systems.items()
    }
