"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main


def test_storage_command(capsys):
    assert main(["storage"]) == 0
    out = capsys.readouterr().out
    assert "controller storage" in out
    assert "18.95" in out


def test_run_command_fast(capsys):
    rc = main(["run", "--system", "NoHarvest", "--horizon-ms", "60",
               "--accesses", "8", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "avg P99 latency" in out
    assert "busy cores" in out


def test_cluster_command_fast(capsys, tmp_path):
    rc = main(["cluster", "--system", "NoHarvest", "--servers", "2",
               "--horizon-ms", "60", "--accesses", "8",
               "--cache-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "NoHarvest across 2 server(s), 1 epoch(s)" in out
    assert "P99" in out and "digest:" in out
    assert "0 hit(s), 2 miss(es)" in out


@pytest.mark.parametrize("argv", [
    ["sweep", "--systems", "NoHarvest", "--seeds", "0..1"],
    ["cluster", "--system", "NoHarvest", "--servers", "2"],
], ids=["sweep", "cluster"])
def test_cache_summary_names_failed_stores(argv, capsys, tmp_path):
    # Every shard name is a plain file: no entry can be read or stored.
    # That is a miss and a failed store per point, not an invalidation.
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    for shard in range(256):
        (blocked / f"{shard:02x}").write_text("")
    assert main(argv + ["--horizon-ms", "6", "--accesses", "2",
                        "--cache-dir", str(blocked)]) == 0
    out = capsys.readouterr().out
    assert (f"cache [{blocked}]: 0 hit(s), 2 miss(es), 0 invalidated, "
            "2 store(s) failed (0% hit rate)") in out


@pytest.mark.parametrize("flags,field", [
    (["--epochs", "0"], "epochs"),
    (["--harvest-max", "40"], "harvest_max_cores"),
    (["--harvest-base", "40"], "harvest_base"),
    (["--harvest-base", "0"], "harvest_base"),
    (["--servers", "0"], "servers"),
    (["--cooldown", "2"], "cooldown"),
])
def test_cluster_bad_flag_exits_2_naming_the_field(flags, field, capsys,
                                                   monkeypatch):
    """Checked before any point runs, at any worker count."""
    import repro.parallel.runner

    def no_runs(*args, **kwargs):
        raise AssertionError("a point ran")

    monkeypatch.setattr(repro.parallel.runner, "run_sweep", no_runs)
    rc = main(["cluster", "--servers", "2", "--workers", "1",
               "--horizon-ms", "10", "--accesses", "2", "--no-cache", *flags])
    assert rc == 2
    assert f"invalid field {field!r}" in capsys.readouterr().err


def test_sweep_over_the_point_limit_exits_2_before_running(capsys, monkeypatch,
                                                          tmp_path):
    import repro.parallel.runner

    def no_runs(*args, **kwargs):
        raise AssertionError("a point ran")

    monkeypatch.setattr(repro.parallel.runner, "run_sweep", no_runs)
    monkeypatch.chdir(tmp_path)
    rc = main(["sweep", "--systems", "NoHarvest", "--seeds", "0..4096",
               "--horizon-ms", "10", "--accesses", "2", "--no-cache"])
    assert rc == 2
    assert "sweep: invalid field 'seeds'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,field", [
    (["run", "--accesses", "0"], "accesses_per_segment"),
    (["trace", "--accesses", "0"], "accesses_per_segment"),
    (["run", "--horizon-ms", "0"], "horizon_ms"),
    (["faults", "--horizon-ms", "0"], "horizon_ms"),
    (["faults", "--list", "--horizon-ms", "0"], "horizon_ms"),
    (["compare", "--seed", "-1"], "seed"),
    (["faults", "--seed", "-1"], "seed"),
])
def test_simulation_flags_checked_by_the_spec_validator(argv, field, capsys,
                                                        monkeypatch, tmp_path):
    """Every command exits 2 naming the field before any point is built."""
    import repro.cluster.server

    def no_points(*args, **kwargs):
        raise AssertionError("a point ran")

    monkeypatch.setattr(repro.cluster.server.ServerSimulation, "__init__",
                        no_points)
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    assert rc == 2
    assert f"{argv[0]}: invalid field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--kill-after", "0"], ["--kill-after", "5"]])
def test_chaos_kill_after_out_of_range_exits_2(flags, capsys, monkeypatch):
    """A bad ``--kill-after`` is a bad flag (exit 2), not a failed recovery
    (exit 1), and no run or victim starts."""
    import repro.cluster_scale.chaos as chaos

    def no_runs(*args, **kwargs):
        raise AssertionError("a run or victim started")

    monkeypatch.setattr(chaos, "run_job", no_runs)
    monkeypatch.setattr(chaos.subprocess, "Popen", no_runs)
    rc = main(["chaos", "--servers", "2", "--epochs", "2", *flags])
    assert rc == 2
    assert "chaos: invalid field 'kill_after_epochs'" in capsys.readouterr().err


def test_chaos_command_resumes_bit_identical(capsys, tmp_path):
    """``repro chaos`` end to end at a tiny size: the SIGKILLed victim's
    resume reproduces the uninterrupted digest, the command exits 0 and
    ``--out`` holds the soak's outcome."""
    out = tmp_path / "chaos.json"
    rc = main(["chaos", "--servers", "2", "--requests", "400", "--epochs", "2",
               "--horizon-ms", "10", "--accesses", "2", "--out", str(out)])
    assert rc == 0
    assert "recovery is bit-identical: PASS" in capsys.readouterr().out
    outcome = json.loads(out.read_text())
    assert outcome["digests_equal"] is True
    assert outcome["resumed_digest"] == outcome["uninterrupted_digest"]
    assert outcome["resumed_from_epoch"] >= 1


def test_chaos_command_exits_1_on_a_digest_mismatch(capsys, monkeypatch):
    import repro.cluster_scale.chaos as chaos

    monkeypatch.setattr(chaos, "run_chaos_soak", lambda **kwargs: {
        "uninterrupted_digest": "a" * 64, "resumed_digest": "b" * 64,
        "digests_equal": False, "killed": True, "resumed_from_epoch": 1,
        "checkpoints_on_disk": 1, "resilience_curve": [],
    })
    assert main(["chaos"]) == 1
    assert "recovery digest MISMATCH" in capsys.readouterr().err


def test_run_command_missing_config_exits_2(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    rc = main(["run", "--config", str(missing)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot read --config" in err


def test_run_command_corrupt_config_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    rc = main(["run", "--config", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "not a valid experiment config" in err


def test_faults_list(capsys):
    rc = main(["faults", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "crash-storm" in out
    assert "brownout" in out


def test_faults_unknown_scenario_exits_2(capsys):
    rc = main(["faults", "--scenario", "meteor-strike"])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_faults_unknown_system_exits_2(capsys):
    rc = main(["faults", "--systems", "NotASystem"])
    assert rc == 2
    assert "unknown system" in capsys.readouterr().err


def test_faults_command_fast(capsys, tmp_path):
    out_json = tmp_path / "faults.json"
    rc = main(["faults", "--scenario", "crash-storm", "--horizon-ms", "60",
               "--accesses", "8", "--systems", "NoHarvest", "--no-cache",
               "--json", str(out_json)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Degradation under faults" in out
    assert "goodput" in out
    assert "retry_amp" in out
    assert out_json.exists()


def test_trace_command_deterministic(capsys, tmp_path):
    argv = ["trace", "--system", "NoHarvest", "--horizon-ms", "40",
            "--accesses", "6", "--probe-interval-us", "100"]
    rc = main(argv + ["--out", str(tmp_path / "a")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Critical path" in out
    assert "span event(s)" in out
    assert "probe sample(s)" in out

    rc = main(argv + ["--out", str(tmp_path / "b")])
    assert rc == 0
    capsys.readouterr()
    for name in ("trace.json", "timeseries.csv", "critical_path.txt"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first, name
        assert first == second, f"{name} not byte-identical across runs"


def test_unknown_system_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--system", "NotASystem"])


def test_parser_defaults():
    args = build_parser().parse_args(["run"])
    assert args.system == "HardHarvest-Block"
    assert args.horizon_ms == 300.0


@pytest.mark.parametrize("flags", [
    [],
    ["--horizon-ms", "40", "--seed", "3", "--accesses", "6"],
    ["--horizon-ms", "900", "--seed", "0", "--accesses", "1"],
])
def test_run_config_equals_a_sweep_jobs_config(flags):
    """``repro run`` builds the simulation a sweep job body with the same
    flags parses to: one warmup rule, one validator."""
    from repro.__main__ import _parse_job, _sim_config

    run_args = build_parser().parse_args(["run", *flags])
    sweep_args = build_parser().parse_args(
        ["sweep", "--systems", "NoHarvest", "--seeds", "0", *flags]
    )
    request = _parse_job(sweep_args, {
        "kind": "sweep", "systems": "NoHarvest", "seeds": "0",
    })
    assert _sim_config(run_args) == request.sim


def test_run_config_invalid_field_named(capsys, tmp_path):
    """A --config file with a bad field value exits 2 naming the field."""
    import json

    cfg_path = tmp_path / "cfg.json"
    rc = main(["run", "--system", "NoHarvest", "--horizon-ms", "10",
               "--accesses", "2", "--dump-config", str(cfg_path)])
    assert rc == 0
    capsys.readouterr()

    def poison(obj):
        if isinstance(obj, dict):
            if obj.get("__type__") == "SimulationConfig":
                obj["horizon_ms"] = -5.0
            for value in obj.values():
                poison(value)
        elif isinstance(obj, list):
            for value in obj:
                poison(value)

    cfg = json.loads(cfg_path.read_text())
    poison(cfg)
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid field 'horizon_ms'" in err
    assert "must be positive" in err


def test_sweep_stats_json_carries_digest(capsys, tmp_path):
    import json

    stats_path = tmp_path / "stats.json"
    argv = ["sweep", "--systems", "NoHarvest", "--seeds", "0",
            "--horizon-ms", "12", "--accesses", "3", "--no-cache",
            "--stats-json", str(stats_path)]
    assert main(argv) == 0
    capsys.readouterr()
    first = json.loads(stats_path.read_text())
    assert len(first["digest"]) == 64

    assert main(argv) == 0
    capsys.readouterr()
    second = json.loads(stats_path.read_text())
    assert second["digest"] == first["digest"], "sweep digest not stable"


def test_cache_command_stats_and_prune(capsys, tmp_path):
    import json

    from repro.parallel import ResultCache

    cache_dir = tmp_path / "cache"
    # Populate the cache with one real entry.
    rc = main(["sweep", "--systems", "NoHarvest", "--seeds", "0",
               "--horizon-ms", "12", "--accesses", "3",
               "--cache-dir", str(cache_dir)])
    assert rc == 0
    capsys.readouterr()

    # Plant a stale entry, written under another version.
    ResultCache(root=str(cache_dir), version="0.0.1").put("f" * 64, {}, {})

    stats_path = tmp_path / "cache_stats.json"
    rc = main(["cache", "--cache-dir", str(cache_dir),
               "--stats-json", str(stats_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "entries" in out and "stale" in out
    stats = json.loads(stats_path.read_text())
    assert stats["entries"] == 2
    assert stats["current"] == 1
    assert stats["stale"] == 1
    assert stats["by_version"]["0.0.1"] == 1

    rc = main(["cache", "--cache-dir", str(cache_dir), "--prune-stale",
               "--stats-json", str(stats_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pruned 1 stale entry" in out
    stats = json.loads(stats_path.read_text())
    assert stats["entries"] == 1
    assert stats["stale"] == 0
    assert stats["pruned"] == 1


def test_cache_prune_never_touches_job_records(capsys, tmp_path):
    """The service job store shares the cache root; pruning must skip it."""
    import json

    cache_dir = tmp_path / "cache"
    jobs_dir = cache_dir / "jobs"
    jobs_dir.mkdir(parents=True)
    (jobs_dir / "abc.json").write_text(json.dumps(
        {"job_id": "abc", "kind": "sweep", "request": {},
         "state": "done", "workers": 1, "submitted_s": 0.0}
    ))
    rc = main(["cache", "--cache-dir", str(cache_dir), "--prune-stale"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pruned 0 stale" in out
    assert "1 service job record(s)" in out
    assert (jobs_dir / "abc.json").exists()


@pytest.mark.parametrize("flag,value,field", [
    ("--port", "70000", "port"),
    ("--port", "-1", "port"),
    ("--service-workers", "-1", "service_workers"),
    ("--grace-s", "-0.5", "grace_s"),
    ("--max-queue", "0", "max_queue"),
    ("--job-ttl-s", "0", "job_ttl_s"),
])
def test_serve_rejects_an_out_of_range_flag_before_binding(flag, value, field,
                                                           capsys, monkeypatch):
    from repro.service.http import JobService

    def bound(self):
        raise AssertionError("the service started")

    monkeypatch.setattr(JobService, "run", bound)
    assert main(["serve", flag, value]) == 2
    err = capsys.readouterr().err
    assert f"invalid field {field!r}" in err and flag in err


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.port == 8023
    assert args.service_workers == 2
    assert args.grace_s == 30.0
    args = build_parser().parse_args(["cache", "--prune-stale"])
    assert args.prune_stale is True
