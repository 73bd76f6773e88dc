"""Experiment driver: build a system, run servers, summarize results.

This is the public entry point a downstream user touches::

    from repro import SystemKind, SimulationConfig, run_server
    result = run_server(build_system(SystemKind.HARDHARVEST_BLOCK),
                        SimulationConfig(requests_per_service=1000))
    print(result.avg_p99_ms())

``run_systems`` runs its systems through
:func:`repro.parallel.runner.run_sweep`: in-process at ``workers=1``,
fanned out over a process pool above it, and served from the
content-addressed result cache when ``cache=`` is given.  Results are
bit-identical at any worker count (the simulator is deterministic and
systems are independent).

The paper's 8-server setup is
:func:`repro.cluster_scale.runner.run_cluster_scale` with
``ClusterScaleConfig(servers=8, epochs=1)``: server ``i`` runs
``run_server(system, sim, BATCH_JOBS[i % 8], server_index=i)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.cluster.server import ServerSimulation
from repro.config import SimulationConfig, SystemConfig
from repro.core.metrics import ServerResult
from repro.sim.units import SEC
from repro.workloads.batch import BatchJobProfile

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


def run_systems(
    systems: Dict[str, SystemConfig],
    simcfg: Optional[SimulationConfig] = None,
    batch_job: Optional[BatchJobProfile] = None,
    workers: int = 1,
    cache: Optional["ResultCache"] = None,
) -> Dict[str, ServerResult]:
    """Run several systems on the identical workload (same seed) and return
    results keyed by system name — the shape every comparison figure needs.

    ``workers=N`` fans the systems out over a process pool and ``cache=``
    serves repeats from the content-addressed result cache.  A point that
    still fails after its retries raises
    :class:`~repro.parallel.runner.SweepError`.
    """
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
    return dict(run_sweep(points, workers=workers, cache=cache).results)
