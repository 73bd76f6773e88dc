"""The sharded cluster-scale run loop.

One run is a sequence of epochs; one epoch is an embarrassingly-parallel
fan-out of per-server simulations over the run's process pool (one
:class:`~repro.parallel.runner.WorkerPool` serves every epoch, through the
same chunked :func:`~repro.parallel.runner.execute_payload_chunk` executor
the sweep runner uses), closed by a cluster-wide barrier where the
coordinator:

1. merges the epoch's per-server results *in server order*;
2. computes the utilization signal and lets the harvest rebalancer move
   batch capacity between servers (:mod:`repro.cluster_scale.rebalance`);
3. folds observed crashes into the health tracker so the next epoch's
   routing excludes cooling-down servers
   (:mod:`repro.cluster_scale.resilience`);
4. routes the next epoch's requests with the balancing policy's feedback
   (:mod:`repro.cluster_scale.routing`);
5. optionally persists a digest-stamped checkpoint of the barrier state,
   from which a killed run resumes bit-identically.

Because steps 1-5 are pure functions of (root seed, epoch, merged
results) and every per-server simulation is a pure function of its
serialized config, the whole run is bit-identical for any ``--workers``
value — the same contract the sweep cache enforces, extended across
barriers.  Fault plans keep the contract: a plan expands into per-server
fault schedules *inside* each point's SimulationConfig (so the result
cache keys change with the plan), and health feedback is derived from the
merged epoch results at the barrier, never from worker-local state.

The degenerate case (one epoch, nominal load, no rebalancing) is the
paper's independent-server cluster: epoch seed 0 is the identity, so
server ``i`` runs exactly ``run_server(system, sim, BATCH_JOBS[i % 8],
server_index=i)``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster_scale.rebalance import rebalance_harvest
from repro.cluster_scale.resilience import CheckpointStore, HealthTracker
from repro.cluster_scale.result import ClusterScaleResult, EpochResult
from repro.cluster_scale.routing import (
    EpochRouting,
    expected_server_rps,
    route_epoch,
    routing_rng,
    service_mix,
)
from repro.cluster_scale.spec import ClusterScaleConfig
from repro.config import SimulationConfig, SystemConfig
from repro.core.metrics import ClusterResult
from repro.sim.rng import derive_epoch_seed
from repro.workloads.batch import BATCH_JOBS
from repro.workloads.suites import get_suite


def _validate(system: SystemConfig, cfg: ClusterScaleConfig) -> None:
    cluster = system.cluster
    primary = cluster.primary_vms_per_server * cluster.cores_per_primary_vm
    need = primary + cluster.harvest_vms_per_server * cfg.harvest_max_cores
    if need > cluster.cores_per_server:
        raise ValueError(
            f"harvest_max_cores={cfg.harvest_max_cores} needs {need} cores "
            f"but servers have {cluster.cores_per_server}"
        )


def _epoch_points(
    system: SystemConfig,
    sim: SimulationConfig,
    cfg: ClusterScaleConfig,
    epoch: int,
    alloc: Sequence[int],
    load_scale: Sequence[Optional[float]],
):
    """One fully-specified SweepPoint per server for this epoch.

    Server ``i`` runs batch job ``BATCH_JOBS[i % 8]`` with
    ``server_index=i``, the paper's one-batch-application-per-server
    cluster.  A point is one server whatever the cluster's size, so it
    carries ``servers_to_simulate=1`` and its cache key holds no size.

    Fault plans materialize here: the plan's events for (epoch, server)
    become that point's ``SimulationConfig.faults`` and the plan's client
    policy rides on every point, which automatically folds every fault
    parameter into the point's result-cache key.
    """
    from repro.parallel.sweep import SweepPoint

    plan = cfg.fault_plan
    base_cores = system.cluster.harvest_vm_base_cores
    epoch_sim = replace(
        sim,
        horizon_ms=cfg.epoch_ms,
        warmup_ms=cfg.warmup_ms,
        seed=derive_epoch_seed(sim.seed, epoch),
        servers_to_simulate=1,
    )
    if plan is not None and plan.client is not None:
        epoch_sim = replace(epoch_sim, client=plan.client)
    points = []
    for i in range(cfg.servers):
        point_system = system
        if alloc[i] != base_cores:
            point_system = replace(
                system,
                cluster=replace(
                    system.cluster, harvest_vm_base_cores=int(alloc[i])
                ),
            )
        point_sim = epoch_sim
        if load_scale[i] is not None:
            point_sim = replace(epoch_sim, load_scale=float(load_scale[i]))
        if plan is not None:
            schedule = plan.schedule_for(epoch, i, cfg.epoch_ms)
            if schedule is not None:
                point_sim = replace(point_sim, faults=schedule)
        points.append(
            SweepPoint(
                label=f"epoch={epoch}/server={i}",
                system=point_system,
                sim=point_sim,
                batch_job=BATCH_JOBS[i % len(BATCH_JOBS)],
                server_index=i,
            )
        )
    return points


def _server_crashed(server) -> bool:
    return server.counters.get("faults_crashes", 0) > 0


def run_cluster_scale(
    system: SystemConfig,
    sim: Optional[SimulationConfig] = None,
    cfg: Optional[ClusterScaleConfig] = None,
    workers: int = 1,
    cache=None,
    task_timeout: Optional[float] = None,
    progress=None,
    checkpoint: Optional[CheckpointStore] = None,
    pool=None,
) -> ClusterScaleResult:
    """Run a sharded, epoch-barriered cluster-scale simulation.

    ``workers`` shards each epoch's servers over a process pool via
    :func:`repro.parallel.runner.run_sweep`; results are collected keyed
    by server, so the outcome is bit-identical to ``workers=1``.  One
    pool serves every epoch: ``pool``, a
    :class:`~repro.parallel.runner.WorkerPool` of size ``workers`` the
    caller owns, or else one this call builds at the first cache miss
    and closes before it returns.
    ``cache`` serves previously-computed (server, epoch) points from the
    content-addressed result cache under the usual key contract.
    ``progress`` is an optional callable ``(message: str) -> None``.

    ``checkpoint`` persists every epoch barrier to disk; the run first
    replays the longest valid checkpoint prefix and only simulates the
    remaining epochs.  A save that fails with ``OSError`` is warned
    about, counted in ``checkpoint.save_failures`` and skipped; the run
    still returns its result.  A resumed run's
    digest is bit-identical to an uninterrupted one because the barrier
    state (harvest allocation, routing carryover, health cool-downs)
    round-trips exactly and all per-epoch randomness derives from
    ``(root seed, epoch)``.
    """
    from repro.parallel.runner import pool_scope, run_sweep

    scope = pool_scope(pool, workers)
    sim = sim or SimulationConfig()
    cfg = cfg or ClusterScaleConfig()
    _validate(system, cfg)
    cluster = system.cluster
    profiles = get_suite(sim.suite)[: cluster.primary_vms_per_server]
    mix = service_mix(profiles, cluster)
    nominal_rps = expected_server_rps(profiles, cluster) * sim.load_scale
    epoch_s = cfg.epoch_ms / 1e3

    plan = cfg.fault_plan
    alloc: List[int] = [cluster.harvest_vm_base_cores] * cfg.servers
    carryover = np.zeros(cfg.servers, dtype=float)
    health = (
        HealthTracker(cfg.servers, plan.cooldown_epochs)
        if plan is not None
        else None
    )
    epochs: List[EpochResult] = []
    first_epoch = 0
    started = time.monotonic()

    if checkpoint is not None:
        if checkpoint.warn is None:
            checkpoint.warn = progress
        entries, state = checkpoint.load(cfg.epochs)
        if entries:
            epochs = [
                EpochResult.from_dict(e["epoch_result"]) for e in entries
            ]
            first_epoch = int(state["next_epoch"])
            alloc = [int(a) for a in state["alloc"]]
            carryover = np.array(state["carryover"], dtype=float)
            if health is not None:
                health = HealthTracker(
                    cfg.servers, plan.cooldown_epochs,
                    cooldown=state.get("cooldown"),
                )
            if progress is not None:
                progress(
                    f"resumed from checkpoint: {len(entries)} epoch(s) "
                    + ("restored, nothing left to simulate"
                       if first_epoch >= cfg.epochs
                       else f"restored, continuing at epoch "
                            f"{first_epoch + 1}/{cfg.epochs}")
                )

    with scope as pool:
        for epoch in range(first_epoch, cfg.epochs):
            requests = cfg.epoch_requests(epoch)
            eligible = health.eligible() if health is not None else None
            routing: Optional[EpochRouting] = None
            load_scale: List[Optional[float]]
            if requests is None:
                load_scale = [None] * cfg.servers
            else:
                routing = route_epoch(
                    cfg.routing,
                    routing_rng(sim.seed, epoch),
                    cfg.servers,
                    requests,
                    mix,
                    carryover,
                    eligible=eligible,
                )
                # Routed share -> per-server load multiplier.  The floor keeps
                # a starved server at a deterministic trickle instead of a
                # zero rate the arrival generator rejects (excluded servers
                # run at the floor, so their recovery is still simulated).
                load_scale = [
                    max(float(c) / (nominal_rps * epoch_s), 0.01) * sim.load_scale
                    for c in routing.counts
                ]

            points = _epoch_points(system, sim, cfg, epoch, alloc, load_scale)
            if progress is not None:
                faulted = (
                    sum(1 for i in range(cfg.servers)
                        if plan.events_for(epoch, i))
                    if plan is not None
                    else 0
                )
                progress(
                    f"epoch {epoch + 1}/{cfg.epochs}: {cfg.servers} server(s), "
                    + (f"{requests} routed request(s)" if requests is not None
                       else "nominal load")
                    + (f", {faulted} server(s) under fault" if faulted else "")
                )
            outcome = run_sweep(
                points, workers=workers, cache=cache,
                task_timeout=task_timeout, pool=pool,
            )
            cluster_result = ClusterResult(
                system=system.name, servers=list(outcome.results.values())
            )

            # --- barrier: merge, rebalance, health, feed the router ---------
            utilization = [
                s.avg_busy_cores / cluster.cores_per_server
                for s in cluster_result.servers
            ]
            decision = None
            if cfg.rebalance and epoch + 1 < cfg.epochs:
                decision = rebalance_harvest(
                    alloc,
                    utilization,
                    cluster.cores_per_server,
                    cfg.harvest_min_cores,
                    cfg.harvest_max_cores,
                    cfg.rebalance_threshold,
                    cfg.rebalance_max_moves,
                )
            health_record = None
            if health is not None:
                crashed = [_server_crashed(s) for s in cluster_result.servers]
                health_record = health.barrier(crashed)
            epochs.append(
                EpochResult(
                    epoch=epoch,
                    seed=derive_epoch_seed(sim.seed, epoch),
                    harvest_alloc=list(alloc),
                    load_scale=[
                        ls if ls is not None else sim.load_scale
                        for ls in load_scale
                    ],
                    routing=routing.to_dict() if routing is not None else None,
                    rebalance=decision.to_dict() if decision is not None else None,
                    cluster=cluster_result,
                    health=health_record,
                )
            )
            if decision is not None:
                alloc = list(decision.alloc)
            # Observed busy core-time (µs) seeds the next epoch's estimated
            # outstanding work, in the same units as per-request cost sums.
            carryover = np.array(
                [u * cluster.cores_per_server * cfg.epoch_ms * 1e3
                 for u in utilization],
                dtype=float,
            )

            if checkpoint is not None:
                try:
                    checkpoint.save(
                        epoch,
                        epochs[-1].to_dict(),
                        {
                            "next_epoch": epoch + 1,
                            "alloc": [int(a) for a in alloc],
                            "carryover": [float(c) for c in carryover],
                            "cooldown": (
                                list(health.cooldown) if health is not None
                                else None
                            ),
                        },
                    )
                except OSError as exc:
                    # Like a cache put, a checkpoint only saves time: the
                    # epoch's results are in hand, and a resume restores
                    # the longest consecutive prefix.
                    checkpoint.save_failures += 1
                    checkpoint._warn(f"epoch {epoch} not saved ({exc}); "
                                     "continuing without it")

    result = ClusterScaleResult(
        system=system.name,
        servers=cfg.servers,
        epochs=epochs,
        fault_plan=plan.to_dict() if plan is not None else None,
        resumed_epochs=first_epoch,
        run_key=checkpoint.run_key if checkpoint is not None else None,
    )
    result.elapsed_s = time.monotonic() - started
    return result
