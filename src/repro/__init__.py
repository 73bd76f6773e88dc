"""HardHarvest reproduction: hardware-supported core harvesting for
microservices (Stojkovic et al., ISCA 2025), as a pure-Python
discrete-event cluster simulator.

Quick start::

    from repro import SystemKind, SimulationConfig, build_system, run_server

    system = build_system(SystemKind.HARDHARVEST_BLOCK)
    result = run_server(system, SimulationConfig(requests_per_service=500))
    print(f"P99 = {result.avg_p99_ms():.2f} ms, "
          f"busy cores = {result.avg_busy_cores:.1f}")

Package map:

* :mod:`repro.config`    -- Table-1 parameters and cost constants.
* :mod:`repro.sim`       -- event engine, RNG streams, statistics.
* :mod:`repro.mem`       -- caches/TLBs, partitioning, replacement, DRAM.
* :mod:`repro.hw`        -- the HardHarvest controller (RQ, QMs, contexts).
* :mod:`repro.cluster`   -- cores, VMs, NIC, the per-server engine.
* :mod:`repro.harvest`   -- lending agents and the transition cost model.
* :mod:`repro.workloads` -- services, batch jobs/kernels, Alibaba traces.
* :mod:`repro.core`      -- presets and the experiment API.
* :mod:`repro.faults`    -- deterministic fault injection + client retries.
* :mod:`repro.parallel`  -- sweep fan-out and the on-disk result cache.
* :mod:`repro.telemetry` -- span tracer, gauge probes, Perfetto/CSV export.
* :mod:`repro.analysis`  -- Belady replay, critical paths, report formatting.
* :mod:`repro.service`   -- the async HTTP job API (``python -m repro serve``).
"""

from repro.config import (
    ClusterConfig,
    FlushScope,
    HarvestTrigger,
    OptimizationFlags,
    PartitionConfig,
    ReplacementKind,
    SimulationConfig,
    SystemConfig,
    SystemKind,
    TelemetryConfig,
)
from repro.core import (
    ClusterResult,
    ServerResult,
    all_systems,
    build_system,
    harvest_block,
    harvest_term,
    hardharvest_block,
    hardharvest_term,
    noharvest,
    run_server,
    run_server_raw,
    run_systems,
)
from repro.faults import (
    ClientPolicy,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    get_scenario,
    scenario_names,
)

# 1.1.0: ServerResult grew the ``resilience`` field and SimulationConfig
# the ``faults``/``client`` fields; the bump invalidates pre-fault cache
# entries so cached and recomputed results stay bit-identical.
# 1.2.0: SimulationConfig grew the ``telemetry`` field (serialized, hence
# part of every cache key); the bump invalidates pre-telemetry entries.
# 1.5.0: the version now also salts service job ids (repro.service), so
# the bump rolls every job id along with every cache key.
# 1.6.0: a server with no Primary arrivals ends at its horizon instead of
# running its batch job to the safety cap, and cluster points no longer
# carry the cluster size; the bump keeps 1.5.0 entries from being served.
# 1.7.0: SimulationConfig lost ``servers_to_simulate`` (no simulator code
# read it), which moves every payload, and the result cache no longer
# reads legacy v1 entries.
__version__ = "1.7.0"

from repro.parallel import (  # noqa: E402 - needs __version__ for cache keys
    ResultCache,
    SweepOutcome,
    SweepPoint,
    SweepSpec,
    run_sweep,
)

__all__ = [
    "__version__",
    "SweepSpec",
    "SweepPoint",
    "SweepOutcome",
    "ResultCache",
    "run_sweep",
    "SystemKind",
    "SystemConfig",
    "SimulationConfig",
    "TelemetryConfig",
    "ClusterConfig",
    "HarvestTrigger",
    "FlushScope",
    "ReplacementKind",
    "PartitionConfig",
    "OptimizationFlags",
    "build_system",
    "all_systems",
    "noharvest",
    "harvest_term",
    "harvest_block",
    "hardharvest_term",
    "hardharvest_block",
    "run_server",
    "run_server_raw",
    "run_systems",
    "ServerResult",
    "ClusterResult",
    "FaultKind",
    "FaultSpec",
    "FaultSchedule",
    "ClientPolicy",
    "get_scenario",
    "scenario_names",
]
