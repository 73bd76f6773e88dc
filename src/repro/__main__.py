"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``      — simulate one server under one system and print its metrics.
``compare``  — run all five evaluated systems on the identical workload.
``cluster``  — the paper's multi-server setup (one batch job per server),
               sharded into epochs with request routing, harvest
               rebalancing, fault plans and checkpoints
               (:mod:`repro.cluster_scale`).
``sweep``    — a (systems x seeds) grid through the parallel runner and
               the content-addressed result cache (:mod:`repro.parallel`).
``faults``   — run a canned fault scenario (:mod:`repro.faults`) and report
               the degradation profile (goodput, retry amplification, SLO
               violations, time-to-recovery) per system.
``chaos``    — SIGKILL-and-resume soak: run a fault-plan cluster
               simulation, kill the orchestrator mid-run, resume it from
               its epoch checkpoints, and assert the recovered digest is
               bit-identical to an uninterrupted run
               (:mod:`repro.cluster_scale.chaos`).
``serve``    — the simulation-as-a-service HTTP job API: POST configs,
               poll job state, download digest-stamped results and
               Perfetto traces, scrape Prometheus metrics
               (:mod:`repro.service`).
``cache``    — inspect the content-addressed result cache: entry and
               size statistics, per-version counts, and stale-entry
               pruning after version bumps.
``storage``  — print the Section 6.8 hardware cost accounting.
``trace``    — run one system with telemetry enabled and export a
               Perfetto trace, a gauge time-series CSV, and the
               critical-path report (:mod:`repro.telemetry`).
``profile``  — run one server simulation under :mod:`cProfile` and print
               the hottest functions (the entry point for hot-path work;
               to profile an older implementation, run it from a
               ``git archive`` of that commit).

``sweep`` and ``cluster`` turn their flags into a job body and parse it
with the service's validator (:mod:`repro.service.spec`), so a command and
the equivalent ``POST /jobs`` body give the same configs, job id and
digest.  Every other command checks its simulation flags with the same
validator, so a bad value exits 2 naming the field before any point runs.

Examples::

    python -m repro run --system HardHarvest-Block --horizon-ms 300
    python -m repro compare --seed 7
    python -m repro cluster --servers 4
    python -m repro sweep --systems all --seeds 0..7 --workers 4
    python -m repro faults --scenario crash-storm --workers 2
    python -m repro faults --list
    python -m repro cluster --servers 8 --requests 4000 --epochs 4 \\
        --fault-plan crash-storm --checkpoint
    python -m repro chaos --servers 3 --epochs 4 --workers 2
    python -m repro serve --port 8023 --service-workers 2
    python -m repro cache --prune-stale --stats-json cache_stats.json
    python -m repro storage
    python -m repro trace --system HardHarvest-Block --out traces/
    python -m repro profile --horizon-ms 60 --sort tottime --top 15
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.analysis.report import format_series, format_table, with_average
from repro.config import ControllerConfig, HierarchyConfig, SimulationConfig, SystemKind
from repro.core.experiment import run_server, run_systems
from repro.core.presets import all_systems, build_system
from repro.hw.storage_cost import compute_storage_report
from repro.workloads.microservices import SERVICE_NAMES

SYSTEM_NAMES = [kind.value for kind in SystemKind]


def _sim_config(args: argparse.Namespace) -> SimulationConfig:
    from repro.service.spec import validate_simulation

    sim = SimulationConfig(
        horizon_ms=args.horizon_ms,
        warmup_ms=min(args.horizon_ms / 5, 100.0),
        seed=args.seed,
        accesses_per_segment=args.accesses,
    )
    validate_simulation(sim)
    return sim


def _print_result(name: str, res) -> None:
    print(f"\n=== {name}")
    print(f"  avg P99 latency    {res.avg_p99_ms():8.2f} ms")
    print(f"  avg median latency {res.avg_p50_ms():8.2f} ms")
    print(f"  batch throughput   {res.batch_units_per_s:8.0f} units/s "
          f"({res.batch_job})")
    print(f"  busy cores         {res.avg_busy_cores:8.1f} / 36")
    print(f"  L2 hit rate        {res.l2_hit_rate * 100:8.1f} %")
    interesting = ("lends", "reclaims", "buffer_borrows", "queue_overflow_spills")
    counts = {k: v for k, v in res.counters.items() if k in interesting and v}
    if counts:
        print("  events             " + ", ".join(f"{k}={v}" for k, v in counts.items()))


def cmd_run(args: argparse.Namespace) -> int:
    from repro.core.serialize import dumps, loads

    simcfg = _sim_config(args)
    if args.config:
        try:
            with open(args.config) as fh:
                system, loaded_sim = loads(fh.read())
        except OSError as exc:
            print(f"cannot read --config {args.config!r}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
        except (ValueError, KeyError, TypeError) as exc:
            print(f"--config {args.config!r} is not a valid experiment "
                  f"config: {exc}", file=sys.stderr)
            return 2
        if loaded_sim is not None:
            from repro.service.spec import JobValidationError, validate_simulation

            try:
                validate_simulation(loaded_sim)
            except JobValidationError as exc:
                print(f"--config {args.config!r}: invalid field "
                      f"{exc.field!r}: {exc}", file=sys.stderr)
                return 2
            simcfg = loaded_sim
        name = system.name
    else:
        system = build_system(SystemKind(args.system))
        name = args.system
    if args.dump_config:
        from repro.core.ioutil import atomic_open

        with atomic_open(args.dump_config) as fh:
            fh.write(dumps(system, simcfg))
        print(f"wrote experiment config to {args.dump_config}")
        return 0
    res = run_server(system, simcfg)
    _print_result(name, res)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    results = run_systems(all_systems(), _sim_config(args))
    cols = list(SERVICE_NAMES) + ["Avg"]
    rows = {
        name: list(with_average(res.p99_ms).values())
        for name, res in results.items()
    }
    print(format_table("P99 tail latency", cols, rows, unit="ms"))
    print()
    print(format_series("Busy cores (of 36)",
                        {k: r.avg_busy_cores for k, r in results.items()},
                        precision=1))
    base = results["NoHarvest"].batch_units_per_s
    print()
    print(format_series("Harvest throughput vs NoHarvest",
                        {k: r.batch_units_per_s / base for k, r in results.items()}))
    return 0


def _write_stats_json(path: str, payload: dict) -> None:
    """Machine-checkable run statistics (the CI smoke's assertion input)."""
    import json

    from repro.core.ioutil import atomic_open

    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote run stats to {path}")


def _print_cache_summary(cache_dir: str, stats) -> None:
    """The one-line cache summary of ``sweep``, ``cluster`` and ``faults``;
    it names failed stores when there were any."""
    failed = (f", {stats.store_failures} store(s) failed"
              if stats.store_failures else "")
    print(f"cache [{cache_dir}]: {stats.hits} hit(s), "
          f"{stats.misses} miss(es), {stats.invalidations} invalidated"
          f"{failed} ({stats.hit_rate() * 100:.0f}% hit rate)")


def _parse_job(args: argparse.Namespace, body: dict):
    """Parse a job body built from ``sweep``/``cluster`` flags with the
    service's validator.

    ``--workers`` is a run setting: it is set on the parsed request, so
    the CLI keeps accepting what the service's admission limit refuses.
    """
    from repro.service.spec import parse_job_request

    body["simulation"] = {
        "horizon_ms": args.horizon_ms,
        "seed": args.seed,
        "accesses_per_segment": args.accesses,
    }
    return replace(parse_job_request(body), workers=args.workers)


def cmd_cluster(args: argparse.Namespace) -> int:
    import os

    from repro.analysis.report import format_cluster_scale_report
    from repro.cluster_scale import CheckpointStore, cluster_run_key
    from repro.core.export import write_cluster_scale_csv, write_cluster_scale_json
    from repro.parallel import DeterminismError, ResultCache, SweepError
    from repro.service.executor import run_job
    from repro.workloads.batch import BATCH_JOBS

    request = _parse_job(args, {
        "kind": "cluster",
        "system": args.system,
        "cluster": {
            "servers": args.servers,
            "requests": args.requests,
            "epochs": args.epochs,
            "routing": args.routing,
            "rebalance": not args.no_rebalance,
            "harvest_min_cores": args.harvest_min,
            "harvest_max_cores": args.harvest_max,
        },
        "fault_plan": args.fault_plan,
        "harvest_base": args.harvest_base,
        "cooldown": args.cooldown,
    })
    cfg = request.cluster
    if cfg.fault_plan is not None:
        print(f"fault plan {args.fault_plan} "
              f"(cooldown {cfg.fault_plan.cooldown_epochs} epoch(s)):")
        print(cfg.fault_plan.describe())

    checkpoint = None
    run_key = None
    if args.checkpoint or args.resume is not None:
        run_key = cluster_run_key(
            request.cluster_system(), request.sim, cfg, list(BATCH_JOBS)
        )
        if args.resume is not None and args.resume != run_key:
            print(f"--resume {args.resume} does not match this "
                  f"configuration's run key {run_key}; refusing to mix "
                  "checkpoints across experiments", file=sys.stderr)
            return 2
        checkpoint_dir = args.checkpoint_dir or os.path.join(
            args.cache_dir, "checkpoints"
        )
        checkpoint = CheckpointStore(root=checkpoint_dir, run_key=run_key)
        print(f"checkpointing to {checkpoint.run_dir} (run key {run_key})")

    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    try:
        result, digest = run_job(
            request,
            cache,
            progress=lambda msg: print(f"[cluster] {msg}", flush=True),
            task_timeout=args.task_timeout,
            checkpoint=checkpoint,
        )
    except (SweepError, DeterminismError) as exc:
        print(f"cluster run failed: {exc}", file=sys.stderr)
        return 1
    print(format_cluster_scale_report(result))
    print(f"\n{cfg.servers * cfg.epochs} server-epoch(s) in "
          f"{result.elapsed_s:.1f}s with {args.workers} worker(s)")
    if cache is not None:
        _print_cache_summary(args.cache_dir, cache.stats)
    if args.json:
        write_cluster_scale_json(args.json, result)
        print(f"wrote JSON results to {args.json}")
    if args.csv:
        write_cluster_scale_csv(args.csv, result)
        print(f"wrote CSV results to {args.csv}")
    if args.stats_json:
        _write_stats_json(args.stats_json, {
            "digest": digest,
            "system": result.system,
            "servers": result.servers,
            "epochs": len(result.epochs),
            "routing": cfg.routing.value,
            "requests_routed": cfg.requests,
            "requests_measured": result.requests_measured(),
            "requests_arrived": result.requests_arrived(),
            "rebalance_moves": result.total_rebalance_moves(),
            "workers": args.workers,
            "elapsed_s": result.elapsed_s,
            "cache": cache.stats.as_dict() if cache is not None else None,
            "fault_plan": args.fault_plan,
            "resilience_curve": result.resilience_curve(),
            "resumed_from_epoch": result.resumed_epochs,
            "checkpoint_run_key": run_key,
        })
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """SIGKILL-and-resume soak over a fault-plan cluster run."""
    from repro.cluster_scale.chaos import run_chaos_soak

    try:
        record = run_chaos_soak(
            system_name=args.system,
            servers=args.servers,
            requests=args.requests,
            epochs=args.epochs,
            epoch_ms=args.horizon_ms,
            routing=args.routing,
            plan_name=args.plan,
            seed=args.seed,
            accesses=args.accesses,
            workers=args.workers,
            kill_after_epochs=args.kill_after,
            progress=lambda msg: print(f"[chaos] {msg}", flush=True),
        )
    except RuntimeError as exc:
        print(f"chaos soak failed: {exc}", file=sys.stderr)
        return 1

    print(f"\nuninterrupted digest  {record['uninterrupted_digest']}")
    print(f"resumed digest        {record['resumed_digest']}")
    print(f"victim killed: {record['killed']}, resumed from epoch "
          f"{record['resumed_from_epoch']} "
          f"({record['checkpoints_on_disk']} checkpoint(s) survived)")
    for entry in record["resilience_curve"]:
        print(f"  epoch {entry['epoch']}: goodput {entry['goodput']:.3f}, "
              f"retry-amp {entry['retry_amplification']:.3f}, "
              f"TTR {entry['recovery_ms_max']:.1f} ms")
    if args.out:
        _write_stats_json(args.out, record)
    if record["digests_equal"]:
        print("\nrecovery is bit-identical: PASS")
        return 0
    print("\nrecovery digest MISMATCH: the resumed run diverged from the "
          "uninterrupted run", file=sys.stderr)
    return 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_sweep_table
    from repro.core.export import write_sweep_csv, write_sweep_json
    from repro.parallel import DeterminismError, ResultCache, SweepError
    from repro.service.executor import run_job

    request = _parse_job(args, {
        "kind": "sweep", "systems": args.systems, "seeds": args.seeds,
    })
    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    try:
        outcome, digest = run_job(
            request,
            cache,
            task_timeout=args.task_timeout,
            verify_cached=args.verify_cached,
        )
    except (SweepError, DeterminismError) as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1

    p99_by_system = {name: [] for name in request.systems}
    busy_by_system = {name: [] for name in request.systems}
    for point, result in zip(request.points(), outcome.results.values()):
        p99_by_system[point.system.name].append(result.avg_p99_ms())
        busy_by_system[point.system.name].append(result.avg_busy_cores)
    print(format_sweep_table(
        f"Avg P99 across {len(request.seeds)} seed(s)", p99_by_system, unit="ms"))
    print()
    print(format_sweep_table(
        "Busy cores (of 36)", busy_by_system, precision=1))
    print(f"\n{len(outcome.results)} point(s) in {outcome.elapsed_s:.1f}s with "
          f"{args.workers} worker(s): {outcome.computed} computed, "
          f"{outcome.from_cache} from cache, {outcome.retried} retried")
    if cache is not None:
        _print_cache_summary(args.cache_dir, cache.stats)
    if args.json:
        write_sweep_json(args.json, outcome.results)
        print(f"wrote JSON results to {args.json}")
    if args.csv:
        write_sweep_csv(args.csv, outcome.results)
        print(f"wrote CSV results to {args.csv}")
    if args.stats_json:
        _write_stats_json(args.stats_json, {
            "digest": digest,
            "points": len(outcome.results),
            "computed": outcome.computed,
            "from_cache": outcome.from_cache,
            "retried": outcome.retried,
            "workers": args.workers,
            "elapsed_s": outcome.elapsed_s,
            "cache": cache.stats.as_dict() if cache is not None else None,
        })
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Run one canned fault scenario across systems and report degradation."""
    from repro.analysis.report import format_resilience_table
    from repro.core.export import write_sweep_json
    from repro.faults import SCENARIOS, get_scenario, scenario_names
    from repro.parallel import DeterminismError, ResultCache, SweepError, run_sweep
    from repro.parallel.sweep import SweepPoint

    simcfg = _sim_config(args)
    if args.list:
        for name in scenario_names():
            scenario = get_scenario(name, args.horizon_ms)
            print(f"{name:12s} {scenario.description} "
                  f"({len(scenario.schedule)} fault(s))")
        return 0
    if args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; choose from "
              f"{scenario_names()}", file=sys.stderr)
        return 2
    systems = all_systems()
    wanted = [name.strip() for name in args.systems.split(",") if name.strip()]
    unknown = [name for name in wanted if name not in systems]
    if unknown:
        print(f"unknown system(s) {unknown}; choose from {SYSTEM_NAMES}",
              file=sys.stderr)
        return 2

    scenario = get_scenario(args.scenario, args.horizon_ms)
    simcfg = replace(
        simcfg, faults=scenario.schedule, client=scenario.client
    )
    print(f"=== scenario {scenario.name}: {scenario.description}")
    print(scenario.schedule.describe())
    print(f"client: timeout={scenario.client.timeout_ms:g}ms "
          f"retries<={scenario.client.max_retries} "
          f"budget={scenario.client.retry_budget:g} "
          f"hedge={scenario.client.hedge_ms or 'off'} "
          f"admission_depth={scenario.client.admission_queue_depth or 'off'}\n")

    points = [
        SweepPoint(label=name, system=systems[name], sim=simcfg)
        for name in wanted
    ]
    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    try:
        outcome = run_sweep(points, workers=args.workers, cache=cache)
    except (SweepError, DeterminismError) as exc:
        print(f"fault run failed: {exc}", file=sys.stderr)
        return 1

    results = outcome.results
    print(format_resilience_table(results))
    print()
    cols = ["p99_ms", "goodput_rps", "timeouts", "retries", "hedges"]
    rows = {
        name: [
            res.avg_p99_ms(),
            res.resilience.get("goodput_rps", 0.0),
            res.resilience.get("timeouts", 0.0),
            res.resilience.get("retries", 0.0),
            res.resilience.get("hedges", 0.0),
        ]
        for name, res in results.items()
    }
    print(format_table("Latency and client effort", cols, rows))
    print(f"\n{len(points)} point(s) in {outcome.elapsed_s:.1f}s with "
          f"{args.workers} worker(s): {outcome.computed} computed, "
          f"{outcome.from_cache} from cache")
    if cache is not None:
        _print_cache_summary(args.cache_dir, cache.stats)
    if args.json:
        write_sweep_json(args.json, results)
        print(f"wrote JSON results to {args.json}")
    if args.stats_json:
        _write_stats_json(args.stats_json, {
            "points": len(points),
            "computed": outcome.computed,
            "from_cache": outcome.from_cache,
            "retried": outcome.retried,
            "workers": args.workers,
            "elapsed_s": outcome.elapsed_s,
            "cache": cache.stats.as_dict() if cache is not None else None,
        })
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one system with telemetry on; export trace artifacts."""
    import os

    from repro.analysis.critical_path import critical_path_report
    from repro.config import TelemetryConfig
    from repro.core.experiment import run_server_raw
    from repro.core.ioutil import atomic_open
    from repro.telemetry.export import write_perfetto_json, write_timeseries_csv

    simcfg = replace(
        _sim_config(args),
        telemetry=TelemetryConfig(
            enabled=True,
            max_events=args.max_events,
            probe_interval_us=args.probe_interval_us,
        ),
    )
    sim = run_server_raw(build_system(SystemKind(args.system)), simcfg)

    vm_names = {vm.vm_id: vm.name for vm in sim.primary_vms}
    for hvm in sim.harvest_vms:
        vm_names[hvm.vm_id] = hvm.name
    events = sim.tracer.events()
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.json")
    csv_path = os.path.join(args.out, "timeseries.csv")
    report_path = os.path.join(args.out, "critical_path.txt")
    n_te = write_perfetto_json(trace_path, events, vm_names, len(sim.cores))
    n_rows = write_timeseries_csv(csv_path, sim.probes)
    report = critical_path_report(
        events, {vm.vm_id: vm.name for vm in sim.primary_vms}
    )
    with atomic_open(report_path) as fh:
        fh.write(report + "\n")

    print(report)
    print(f"\n{len(events)} span event(s) "
          f"({sim.tracer.dropped} dropped by ring eviction), "
          f"{n_rows} probe sample(s) ({sim.probes.dropped} dropped)")
    print(f"wrote {trace_path} ({n_te} trace events; "
          f"load at https://ui.perfetto.dev)")
    print(f"wrote {csv_path}")
    print(f"wrote {report_path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation-as-a-service HTTP job API (repro.service)."""
    from repro.service import JobService
    from repro.service.spec import JobValidationError

    for field, ok, rule in (
        ("port", 0 <= args.port <= 65535, "in [0, 65535]"),
        ("service_workers", args.service_workers >= 0, "at least 0"),
        ("grace_s", args.grace_s >= 0, "at least 0"),
        ("max_queue", args.max_queue >= 1, "at least 1"),
        ("job_ttl_s", args.job_ttl_s is None or args.job_ttl_s > 0,
         "greater than 0"),
    ):
        if not ok:
            flag = "--" + field.replace("_", "-")
            raise JobValidationError(field, f"{flag} must be {rule}, got {getattr(args, field)}")

    service = JobService(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        cache=not args.no_cache,
        max_queue=args.max_queue,
        service_workers=args.service_workers,
        grace_s=args.grace_s,
        job_ttl_s=args.job_ttl_s,
    )
    try:
        service.run()
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect and manage the content-addressed result cache."""
    from repro.parallel import ResultCache
    from repro.service.jobs import JobStore, prune_job_records

    cache = ResultCache(root=args.cache_dir)
    store = JobStore(args.cache_dir)
    pruned = 0
    if args.prune_stale:
        pruned = cache.prune_stale()
        print(f"pruned {pruned} stale entr{'y' if pruned == 1 else 'ies'}")
    pruned_jobs = 0
    if args.prune_jobs is not None:
        pruned_jobs = prune_job_records(store, args.prune_jobs)
        print(f"pruned {pruned_jobs} terminal job record(s) older than "
              f"{args.prune_jobs:.0f}s")
    disk = {**cache.disk_stats(), "jobs": len(store.job_ids())}
    print(f"cache [{args.cache_dir}] version {cache.version}:")
    print(f"  entries        {disk['entries']:8d} "
          f"({disk['bytes'] / 1024:.1f} KB)")
    print(f"  current        {disk['current']:8d}")
    print(f"  stale          {disk['stale']:8d}"
          + ("  (reclaim with --prune-stale)" if disk["stale"] else ""))
    print(f"  jobs           {disk['jobs']:8d} service job record(s)")
    for version, count in sorted(disk["by_version"].items()):
        print(f"    {version:12s} {count:6d}")
    for fmt, count in sorted(disk["by_format"].items()):
        print(f"  format {fmt:8s}{count:8d}"
              + ("  (compressed)" if fmt == "v2" else ""))
    if args.stats_json:
        _write_stats_json(args.stats_json, {
            **disk,
            "version": cache.version,
            "pruned": pruned,
            "pruned_jobs": pruned_jobs,
            "session": cache.stats.as_dict(),
        })
    return 0


def cmd_storage(_args: argparse.Namespace) -> int:
    report = compute_storage_report(ControllerConfig(), HierarchyConfig(), 36)
    print("HardHarvest hardware cost (Section 6.8):")
    print(f"  controller storage  {report.controller_bytes / 1024:6.2f} KB")
    print(f"  shared bits/server  {report.shared_bit_bytes_total / 1024:6.2f} KB")
    print(f"  area overhead       {report.area_overhead_fraction * 100:6.3f} %")
    print(f"  power overhead      {report.power_overhead_fraction * 100:6.3f} %")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one server simulation with :mod:`cProfile`.

    Profiles :func:`~repro.core.experiment.run_server_raw` — construction
    plus the full event loop, exactly what the speedup benchmarks time —
    and prints the top functions by ``--sort``.  ``--output`` additionally
    dumps the raw pstats file for ``snakeviz``/``pstats`` browsing.
    """
    import cProfile
    import pstats

    from repro.core.experiment import run_server_raw

    system = build_system(SystemKind(args.system))
    simcfg = _sim_config(args)
    profiler = cProfile.Profile()
    profiler.enable()
    run_server_raw(system, simcfg)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.output:
        profiler.dump_stats(args.output)
        print(f"wrote raw profile to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="HardHarvest reproduction: simulate core harvesting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--horizon-ms", type=float, default=300.0,
                       help="simulated wall-clock per server (default 300)")
        p.add_argument("--seed", type=int, default=2025)
        p.add_argument("--accesses", type=int, default=24,
                       help="sampled memory accesses per compute segment")

    p_run = sub.add_parser("run", help="simulate one system")
    p_run.add_argument("--system", default="HardHarvest-Block",
                       choices=SYSTEM_NAMES)
    p_run.add_argument("--config", default=None,
                       help="load a serialized experiment (JSON) instead")
    p_run.add_argument("--dump-config", default=None,
                       help="write the experiment JSON and exit")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="all five systems, same workload")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_cl = sub.add_parser(
        "cluster",
        help="sharded multi-server run (repro.cluster_scale): routing, "
             "epochs, harvest rebalancing, fault plans, checkpoints",
    )
    p_cl.add_argument("--system", default="HardHarvest-Block",
                      choices=SYSTEM_NAMES)
    p_cl.add_argument("--servers", type=int, default=8)
    p_cl.add_argument("--requests", type=int, default=None,
                      help="total requests the front-end routes across the "
                           "cluster (default: nominal per-server load)")
    p_cl.add_argument("--workers", type=int, default=1,
                      help="process-pool shards per epoch (1 = serial; "
                           "results are bit-identical either way)")
    p_cl.add_argument("--routing", default="round-robin",
                      help="round-robin | least-loaded | p2c "
                           "(default round-robin)")
    p_cl.add_argument("--epochs", type=int, default=1,
                      help="barrier-separated simulation rounds (routing "
                           "feedback + harvest rebalancing exchange)")
    p_cl.add_argument("--no-rebalance", action="store_true",
                      help="disable inter-server harvest rebalancing")
    p_cl.add_argument("--harvest-base", type=int, default=None,
                      help="starting harvest-VM base cores per server "
                           "(default: the system preset's value)")
    p_cl.add_argument("--harvest-min", type=int, default=1,
                      help="rebalancer lower bound on harvest cores")
    p_cl.add_argument("--harvest-max", type=int, default=4,
                      help="rebalancer upper bound on harvest cores")
    p_cl.add_argument("--fault-plan", default=None,
                      help="canned cluster fault plan: crash-storm | "
                           "brownout-wave | slow-core-epidemic")
    p_cl.add_argument("--cooldown", type=int, default=None,
                      help="epochs a crashed server stays excluded from "
                           "routing (default: the plan's own setting)")
    p_cl.add_argument("--checkpoint", action="store_true",
                      help="persist a digest-stamped checkpoint at every "
                           "epoch barrier and auto-resume from matching "
                           "checkpoints")
    p_cl.add_argument("--checkpoint-dir", default=None,
                      help="checkpoint directory (default "
                           "<cache-dir>/checkpoints)")
    p_cl.add_argument("--resume", default=None, metavar="RUN_KEY",
                      help="resume the run with this checkpoint run key "
                           "(refuses to start if the key does not match "
                           "the given configuration)")
    p_cl.add_argument("--no-cache", action="store_true",
                      help="recompute every point; do not touch the cache")
    p_cl.add_argument("--cache-dir", default=".repro_cache",
                      help="result cache directory (default .repro_cache)")
    p_cl.add_argument("--task-timeout", type=float, default=None,
                      help="per-point timeout in seconds (default: none); "
                           "enforced only with --workers > 1")
    p_cl.add_argument("--json", default=None, help="write results JSON here")
    p_cl.add_argument("--csv", default=None, help="write results CSV here")
    p_cl.add_argument("--stats-json", default=None,
                      help="write digest + run statistics JSON here "
                           "(the CI determinism smoke's input)")
    common(p_cl)
    p_cl.set_defaults(func=cmd_cluster)

    p_sw = sub.add_parser(
        "sweep", help="systems x seeds grid via the parallel runner + cache"
    )
    p_sw.add_argument("--systems", default="all",
                      help='"all" or a comma list of system names')
    p_sw.add_argument("--seeds", default="0..7",
                      help='seed set: "0..7", "3", or "0,2,8..11"')
    p_sw.add_argument("--workers", type=int, default=1,
                      help="process-pool size (1 = in-process serial)")
    p_sw.add_argument("--no-cache", action="store_true",
                      help="recompute every point; do not touch the cache")
    p_sw.add_argument("--cache-dir", default=".repro_cache",
                      help="result cache directory (default .repro_cache)")
    p_sw.add_argument("--task-timeout", type=float, default=None,
                      help="per-point timeout in seconds (default: none); "
                           "enforced only with --workers > 1")
    p_sw.add_argument("--verify-cached", action="store_true",
                      help="recompute cache hits and assert bit-identical")
    p_sw.add_argument("--json", default=None, help="write results JSON here")
    p_sw.add_argument("--csv", default=None, help="write results CSV here")
    p_sw.add_argument("--stats-json", default=None,
                      help="write run/cache statistics JSON here (what CI "
                           "asserts on instead of grepping stdout)")
    common(p_sw)
    p_sw.set_defaults(func=cmd_sweep)

    p_ft = sub.add_parser(
        "faults", help="canned fault scenario + degradation report"
    )
    p_ft.add_argument("--scenario", default="crash-storm",
                      help="scenario name (see --list)")
    p_ft.add_argument("--list", action="store_true",
                      help="list available scenarios and exit")
    p_ft.add_argument("--systems", default="NoHarvest,HardHarvest-Block",
                      help="comma list of systems to compare under faults")
    p_ft.add_argument("--workers", type=int, default=1,
                      help="process-pool size (1 = in-process serial)")
    p_ft.add_argument("--no-cache", action="store_true",
                      help="recompute every point; do not touch the cache")
    p_ft.add_argument("--cache-dir", default=".repro_cache",
                      help="result cache directory (default .repro_cache)")
    p_ft.add_argument("--json", default=None, help="write results JSON here")
    p_ft.add_argument("--stats-json", default=None,
                      help="write run/cache statistics JSON here (what CI "
                           "asserts on instead of grepping stdout)")
    common(p_ft)
    p_ft.set_defaults(func=cmd_faults)

    p_ch = sub.add_parser(
        "chaos",
        help="SIGKILL-and-resume soak: kill a checkpointing cluster run "
             "mid-flight, resume, assert bit-identical recovery",
    )
    p_ch.add_argument("--system", default="HardHarvest-Block",
                      choices=SYSTEM_NAMES)
    p_ch.add_argument("--servers", type=int, default=3)
    p_ch.add_argument("--requests", type=int, default=2400,
                      help="total routed requests (default 2400)")
    p_ch.add_argument("--epochs", type=int, default=4,
                      help="epochs (>= 2 so there is a barrier to kill at)")
    p_ch.add_argument("--routing", default="p2c",
                      help="round-robin | least-loaded | p2c (default p2c)")
    p_ch.add_argument("--plan", default="crash-storm",
                      help="cluster fault plan (default crash-storm)")
    p_ch.add_argument("--workers", type=int, default=1,
                      help="worker count for all three runs")
    p_ch.add_argument("--kill-after", type=int, default=1,
                      help="checkpointed epochs required before SIGKILL "
                           "(default 1)")
    p_ch.add_argument("--out", default=None,
                      help="write the chaos benchmark record JSON here")
    common(p_ch)
    p_ch.set_defaults(func=cmd_chaos, horizon_ms=25.0, accesses=2)

    p_tr = sub.add_parser(
        "trace", help="run with telemetry and export Perfetto/CSV artifacts"
    )
    p_tr.add_argument("--system", default="HardHarvest-Block",
                      choices=SYSTEM_NAMES)
    p_tr.add_argument("--out", default="traces",
                      help="output directory (default traces/)")
    p_tr.add_argument("--max-events", type=int, default=1_000_000,
                      help="span-tracer ring-buffer capacity")
    p_tr.add_argument("--probe-interval-us", type=float, default=50.0,
                      help="gauge sampling cadence in simulated µs")
    common(p_tr)
    p_tr.set_defaults(func=cmd_trace)

    p_pr = sub.add_parser(
        "profile", help="cProfile one server run and print the hot functions"
    )
    p_pr.add_argument("--system", default="HardHarvest-Block",
                      choices=SYSTEM_NAMES)
    p_pr.add_argument("--sort", default="cumtime",
                      choices=["cumtime", "tottime", "ncalls", "calls",
                               "time", "cumulative"],
                      help="pstats sort key (default cumtime)")
    p_pr.add_argument("--top", type=int, default=25,
                      help="number of stats rows to print (default 25)")
    p_pr.add_argument("--output", default=None,
                      help="also dump the raw pstats file here")
    common(p_pr)
    p_pr.set_defaults(func=cmd_profile)

    p_sv = sub.add_parser(
        "serve",
        help="HTTP job API: POST configs, poll jobs, download digested "
             "results and traces, scrape Prometheus metrics "
             "(repro.service)",
    )
    p_sv.add_argument("--host", default="127.0.0.1",
                      help="bind address (default 127.0.0.1)")
    p_sv.add_argument("--port", type=int, default=8023,
                      help="bind port (default 8023; 0 = ephemeral)")
    p_sv.add_argument("--cache-dir", default=".repro_cache",
                      help="result cache + job store root "
                           "(default .repro_cache)")
    p_sv.add_argument("--no-cache", action="store_true",
                      help="run jobs without the result cache (job records "
                           "still persist under <cache-dir>/jobs)")
    p_sv.add_argument("--max-queue", type=int, default=64,
                      help="admission limit on queued jobs (default 64)")
    p_sv.add_argument("--service-workers", type=int, default=2,
                      help="concurrent jobs the service executes "
                           "(default 2); each of these slots keeps one "
                           "pool of its jobs' 'workers' processes across "
                           "its jobs, so concurrent jobs never share one")
    p_sv.add_argument("--grace-s", type=float, default=30.0,
                      help="seconds SIGTERM/SIGINT waits for in-flight "
                           "jobs before requeueing them (default 30)")
    p_sv.add_argument("--job-ttl-s", type=float, default=None,
                      help="evict terminal (done/failed) job records and "
                           "their .result/.trace files this many seconds "
                           "(> 0) after they finish (default: keep "
                           "forever; simulation results stay in the "
                           "result cache either way)")
    p_sv.set_defaults(func=cmd_serve)

    p_ca = sub.add_parser(
        "cache",
        help="inspect .repro_cache: entry/size stats and stale-entry "
             "pruning after version bumps",
    )
    p_ca.add_argument("--cache-dir", default=".repro_cache",
                      help="result cache directory (default .repro_cache)")
    p_ca.add_argument("--prune-stale", action="store_true",
                      help="delete entries recorded under other package "
                           "versions (they can never be returned; this "
                           "reclaims their disk space)")
    p_ca.add_argument("--prune-jobs", type=float, default=None,
                      metavar="TTL_S",
                      help="delete terminal (done/failed) service job "
                           "records — and their .result/.trace files — "
                           "older than TTL_S seconds (0 = every terminal "
                           "record); queued/running jobs are kept")
    p_ca.add_argument("--stats-json", default=None,
                      help="write the disk statistics JSON here")
    p_ca.set_defaults(func=cmd_cache)

    p_st = sub.add_parser("storage", help="Section 6.8 hardware cost")
    p_st.set_defaults(func=cmd_storage)
    return parser


def main(argv=None) -> int:
    from repro.service.spec import JobValidationError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except JobValidationError as exc:
        print(f"{args.command}: invalid field {exc.field!r}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
