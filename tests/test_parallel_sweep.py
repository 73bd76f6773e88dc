"""Tests for sweep enumeration and the parallel runner.

The load-bearing guarantees:

* enumeration order is deterministic and results are keyed by point;
* the parallel path is *bit-identical* to the serial path;
* a second cached invocation is served >= 90% from cache (the acceptance
  criterion of the sweep substrate);
* the determinism guard catches a cached result that disagrees with a
  fresh recompute;
* crashes are retried per point with backoff, then surface as
  :class:`SweepError` (or as quarantine records when opted in).

Configs here are tiny (about 12 simulated ms) — these tests exercise the
orchestration, not the simulator's statistics.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.cluster_scale import ClusterScaleConfig, run_cluster_scale
from repro.config import SimulationConfig, SystemKind
from repro.core.experiment import run_server, run_systems
from repro.core.export import server_result_to_dict
from repro.core.presets import all_systems, build_system
from repro.parallel import (
    DeterminismError,
    ResultCache,
    SweepError,
    SweepPoint,
    SweepSpec,
    canonical_json,
    parse_seeds,
    run_sweep,
)
from repro.parallel.sweep import MAX_SWEEP_POINTS
from repro.workloads.batch import BATCH_JOBS

TINY = SimulationConfig(horizon_ms=12.0, warmup_ms=2.0, accesses_per_segment=3)


def tiny_spec(n_systems=2, seeds=(0, 1)) -> SweepSpec:
    systems = dict(list(all_systems().items())[:n_systems])
    return SweepSpec(systems=systems, seeds=seeds, sim=TINY)


def fingerprints(results) -> dict:
    return {
        label: canonical_json(server_result_to_dict(r))
        for label, r in results.items()
    }


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------
def test_parse_seeds_grammar():
    assert parse_seeds("0..7") == tuple(range(8))
    assert parse_seeds("3") == (3,)
    assert parse_seeds("0,2,8..11") == (0, 2, 8, 9, 10, 11)
    with pytest.raises(ValueError):
        parse_seeds("5..2")
    with pytest.raises(ValueError):
        parse_seeds(",")


def test_parse_seeds_sizes_a_range_before_expanding_it():
    assert len(parse_seeds(f"0..{MAX_SWEEP_POINTS - 1}")) == MAX_SWEEP_POINTS
    for text in (f"0,1..{MAX_SWEEP_POINTS}", "0..1000000000000"):
        with pytest.raises(ValueError, match="more than"):
            parse_seeds(text)


def test_spec_enumeration_order_and_labels():
    spec = tiny_spec(n_systems=2, seeds=(7, 3))
    labels = [p.label for p in spec.points()]
    assert labels == [
        "NoHarvest/seed=7", "NoHarvest/seed=3",
        "Harvest-Term/seed=7", "Harvest-Term/seed=3",
    ]
    assert spec.size() == len(labels)
    seeds = [p.sim.seed for p in spec.points()]
    assert seeds == [7, 3, 7, 3]


def test_payload_excludes_label_and_is_canonical():
    base = tiny_spec(n_systems=1, seeds=(5,))
    point = next(iter(base.points()))
    renamed = SweepPoint(
        label="other-name", system=point.system, sim=point.sim,
        batch_job=point.batch_job, server_index=point.server_index,
    )
    assert canonical_json(point.payload()) == canonical_json(renamed.payload())


def test_configs_pickle_for_process_pool_workers():
    """Everything that crosses the worker boundary must pickle cleanly."""
    for obj in (build_system(SystemKind.HARDHARVEST_BLOCK), TINY, BATCH_JOBS[0]):
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_duplicate_labels_rejected():
    point = next(iter(tiny_spec(1, (0,)).points()))
    with pytest.raises(ValueError, match="duplicate"):
        run_sweep([point, point])


# ---------------------------------------------------------------------------
# Parallel execution parity and caching
# ---------------------------------------------------------------------------
def test_parallel_results_bit_identical_to_serial_and_cache_serves_rerun(tmp_path):
    spec = tiny_spec(n_systems=2, seeds=(0, 1))
    serial = run_sweep(spec, workers=1)
    assert serial.computed == 4 and serial.from_cache == 0
    assert serial.cache_stats is None

    cache = ResultCache(root=str(tmp_path))
    parallel = run_sweep(spec, workers=2, cache=cache)
    assert list(parallel.results) == list(serial.results)  # point order
    assert fingerprints(parallel.results) == fingerprints(serial.results)
    assert cache.stats.misses == 4 and cache.stats.stores == 4

    rerun = run_sweep(spec, workers=2, cache=ResultCache(root=str(tmp_path)))
    assert rerun.computed == 0 and rerun.from_cache == 4
    assert fingerprints(rerun.results) == fingerprints(serial.results)


def test_acceptance_all_systems_sweep_second_run_90pct_cached(tmp_path):
    """The ISSUE acceptance criterion at test scale: all five systems,
    multi-seed grid, workers=4 — parallel == serial bit-for-bit, and the
    second invocation is served >= 90% from cache (here: 100%)."""
    spec = SweepSpec(systems=all_systems(), seeds=(0, 1), sim=TINY)
    serial = run_sweep(spec, workers=1)
    cold = run_sweep(spec, workers=4, cache=ResultCache(root=str(tmp_path)))
    assert fingerprints(cold.results) == fingerprints(serial.results)

    warm_cache = ResultCache(root=str(tmp_path))
    warm = run_sweep(spec, workers=4, cache=warm_cache)
    assert warm.from_cache == spec.size() == 10
    assert warm_cache.stats.hits / spec.size() >= 0.90
    assert fingerprints(warm.results) == fingerprints(serial.results)


def test_verify_cached_accepts_honest_cache(tmp_path):
    spec = tiny_spec(n_systems=1, seeds=(0,))
    run_sweep(spec, workers=1, cache=ResultCache(root=str(tmp_path)))
    out = run_sweep(
        spec, workers=1, cache=ResultCache(root=str(tmp_path)), verify_cached=True
    )
    assert out.from_cache == 1


def test_verify_cached_trips_on_tampered_result(tmp_path):
    """Regression guard: if a cached result and a fresh recompute of the
    same point ever diverge (e.g. hidden global-RNG use in the server
    workers), the runner must refuse to serve the cache."""
    spec = tiny_spec(n_systems=1, seeds=(0,))
    cache = ResultCache(root=str(tmp_path))
    run_sweep(spec, workers=1, cache=cache)
    point = next(iter(spec.points()))
    key = cache.key(point.payload())
    entry = cache.read_entry(key)
    entry["result"]["avg_busy_cores"] += 1.0  # simulate nondeterminism
    cache.put(key, entry["payload"], entry["result"])
    with pytest.raises(DeterminismError, match="bit-identical"):
        run_sweep(
            spec, workers=1, cache=ResultCache(root=str(tmp_path)),
            verify_cached=True,
        )


# ---------------------------------------------------------------------------
# Failure policy
# ---------------------------------------------------------------------------
def test_crashed_point_is_retried_once(monkeypatch):
    import repro.parallel.runner as runner_mod

    real = runner_mod.execute_payload
    calls = {"n": 0}

    def flaky(payload_json):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("simulated worker crash")
        return real(payload_json)

    monkeypatch.setattr(runner_mod, "execute_payload", flaky)
    out = run_sweep(tiny_spec(n_systems=1, seeds=(0,)), workers=1)
    assert out.retried == 1
    assert "simulated worker crash" in next(iter(out.retry_errors.values()))
    assert list(out.results) == ["NoHarvest/seed=0"]


def test_point_exhausting_attempts_raises_sweep_error(monkeypatch):
    import repro.parallel.runner as runner_mod

    def always_broken(payload_json):
        raise RuntimeError("hopeless")

    monkeypatch.setattr(runner_mod, "execute_payload", always_broken)
    monkeypatch.setattr(runner_mod, "_sleep", lambda s: None)
    with pytest.raises(SweepError, match=r"failed after 3 attempt\(s\).*hopeless"):
        run_sweep(tiny_spec(n_systems=1, seeds=(0,)), workers=1)


def test_backoff_sleeps_between_retry_rounds(monkeypatch):
    import repro.parallel.runner as runner_mod

    def always_broken(payload_json):
        raise RuntimeError("hopeless")

    delays = []
    monkeypatch.setattr(runner_mod, "execute_payload", always_broken)
    monkeypatch.setattr(runner_mod, "_sleep", delays.append)
    with pytest.raises(SweepError):
        run_sweep(tiny_spec(n_systems=1, seeds=(0,)), workers=1)
    # max_attempts=3 => two retry rounds, exponential from the base.
    assert delays == [pytest.approx(0.05), pytest.approx(0.10)]


def test_retry_recomputes_only_failed_points(monkeypatch):
    """The retry granularity fix: siblings that succeeded on the first
    attempt are banked — retry rounds re-run the failed points alone."""
    import repro.parallel.runner as runner_mod

    real = runner_mod.execute_payload
    calls: dict = {}

    def flaky(payload_json):
        calls[payload_json] = calls.get(payload_json, 0) + 1
        if json.loads(payload_json)["simulation"]["seed"] == 1 \
                and calls[payload_json] == 1:
            raise RuntimeError("first-attempt crash")
        return real(payload_json)

    monkeypatch.setattr(runner_mod, "execute_payload", flaky)
    monkeypatch.setattr(runner_mod, "_sleep", lambda s: None)
    spec = tiny_spec(n_systems=2, seeds=(0, 1))
    out = run_sweep(spec, workers=1)
    assert out.retried == 2  # one seed=1 point per system
    by_seed = {
        json.loads(payload)["simulation"]["seed"]: n
        for payload, n in calls.items()
    }
    assert by_seed == {0: 1, 1: 2}  # seed-0 points never re-ran
    assert list(out.results) == [p.label for p in spec.points()]


def test_quarantine_keeps_partial_results(monkeypatch):
    import repro.parallel.runner as runner_mod

    real = runner_mod.execute_payload

    def poisoned(payload_json):
        if json.loads(payload_json)["simulation"]["seed"] == 1:
            raise RuntimeError("hopeless point")
        return real(payload_json)

    monkeypatch.setattr(runner_mod, "execute_payload", poisoned)
    monkeypatch.setattr(runner_mod, "_sleep", lambda s: None)
    out = run_sweep(tiny_spec(n_systems=1, seeds=(0, 1)), workers=1,
                    quarantine=True)
    assert list(out.results) == ["NoHarvest/seed=0"]
    assert list(out.quarantined) == ["NoHarvest/seed=1"]
    assert "hopeless point" in out.quarantined["NoHarvest/seed=1"]
    assert out.retried == 0  # it never recovered


def test_chunk_failure_is_isolated_to_guilty_point(monkeypatch):
    """Inside a multi-point chunk, one crashing point reports its error
    while chunk-mates' results survive (no chunk-wide failure)."""
    import repro.parallel.runner as runner_mod

    if __import__("multiprocessing").get_start_method() != "fork":
        pytest.skip("needs fork start method to inherit the monkeypatch")

    real = runner_mod.execute_payload

    def poisoned(payload_json):
        if json.loads(payload_json)["simulation"]["seed"] == 1:
            raise RuntimeError("guilty point")
        return real(payload_json)

    monkeypatch.setattr(runner_mod, "execute_payload", poisoned)
    spec = tiny_spec(n_systems=2, seeds=(0, 1))
    tasks = [(p.label, canonical_json(p.payload())) for p in spec.points()]
    with runner_mod.WorkerPool(2) as pool:
        done, failed, rebuilds = runner_mod._execute_batch(
            tasks, pool, task_timeout=None, chunk_size=2,
        )
    expected_failed = sorted(
        p.label for p in spec.points() if p.label.endswith("seed=1")
    )
    expected_done = sorted(
        p.label for p in spec.points() if p.label.endswith("seed=0")
    )
    assert sorted(failed) == expected_failed
    assert all("guilty point" in err for err in failed.values())
    assert sorted(done) == expected_done
    assert rebuilds == 0


def test_hung_point_times_out_on_every_attempt_and_leaves_no_child(monkeypatch):
    """With ``workers > 1`` and a ``task_timeout``, a point that hangs far
    past the timeout fails every attempt, its singleton retries included,
    and the pool workers stuck in it are terminated, not left to delay
    interpreter exit."""
    import multiprocessing
    import time

    import repro.parallel.runner as runner_mod

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("needs fork start method to inherit the monkeypatch")

    real = runner_mod.execute_payload

    def hangs(payload_json):
        if json.loads(payload_json)["simulation"]["seed"] == 1:
            time.sleep(30.0)
        return real(payload_json)

    monkeypatch.setattr(runner_mod, "execute_payload", hangs)
    monkeypatch.setattr(runner_mod, "_sleep", lambda s: None)
    children_before = set(multiprocessing.active_children())
    started = time.monotonic()
    with pytest.raises(SweepError, match=r"NoHarvest/seed=1: chunk of 1 timed out"):
        run_sweep(tiny_spec(n_systems=1, seeds=(0, 1)), workers=2, task_timeout=1.0)
    assert time.monotonic() - started < 15.0
    assert set(multiprocessing.active_children()) <= children_before


def test_broken_pool_is_rebuilt_and_sweep_completes(monkeypatch, tmp_path):
    """A worker dying hard (os._exit, the SIGKILL/OOM shape) poisons the
    whole pool; the batch must rebuild it, resubmit the lost chunks, and
    still deliver every result bit-identically."""
    import repro.parallel.runner as runner_mod

    if __import__("multiprocessing").get_start_method() != "fork":
        pytest.skip("needs fork start method to inherit the monkeypatch")

    real = runner_mod.execute_payload
    bomb = tmp_path / "armed"
    bomb.write_text("armed")

    def kamikaze(payload_json):
        import os as _os

        if json.loads(payload_json)["simulation"]["seed"] == 1:
            try:
                _os.remove(str(bomb))  # detonate exactly once
            except FileNotFoundError:
                pass
            else:
                _os._exit(1)  # kills the pool worker: no exception, no result
        return real(payload_json)

    monkeypatch.setattr(runner_mod, "execute_payload", kamikaze)
    monkeypatch.setattr(runner_mod, "_sleep", lambda s: None)
    spec = tiny_spec(n_systems=1, seeds=(0, 1, 2, 3))
    out = run_sweep(spec, workers=2)
    assert out.pool_rebuilds >= 1
    assert out.retried >= 1  # the lost chunk's points came back via retry
    serial = run_sweep(spec, workers=1)
    assert fingerprints(out.results) == fingerprints(serial.results)


# ---------------------------------------------------------------------------
# Wiring: run_systems / run_cluster_scale workers= / cache= paths
# ---------------------------------------------------------------------------
def test_run_systems_workers_path_matches_serial(tmp_path):
    systems = dict(list(all_systems().items())[:2])
    serial = {name: run_server(cfg, TINY) for name, cfg in systems.items()}
    fanned = run_systems(
        systems, TINY, workers=2, cache=ResultCache(root=str(tmp_path))
    )
    assert list(fanned) == list(serial)
    assert fingerprints(fanned) == fingerprints(serial)


def test_run_systems_failing_point_raises_sweep_error(monkeypatch):
    """Without workers or cache too, a point is retried, then fails the run."""
    import repro.parallel.runner as runner_mod

    calls = []

    def boom(payload_json):
        calls.append(payload_json)
        raise RuntimeError("boom")

    monkeypatch.setattr(runner_mod, "execute_payload", boom)
    monkeypatch.setattr(runner_mod, "_sleep", lambda s: None)
    with pytest.raises(SweepError, match="boom"):
        run_systems(dict(list(all_systems().items())[:1]), TINY)
    assert len(calls) == 3


def test_run_cluster_scale_workers_path_matches_serial(tmp_path):
    system = build_system(SystemKind.NOHARVEST)
    simcfg = SimulationConfig(
        horizon_ms=12.0, warmup_ms=2.0, accesses_per_segment=3,
        servers_to_simulate=2,
    )
    cfg = ClusterScaleConfig(servers=2, epochs=1, epoch_ms=12.0, warmup_ms=2.0)
    serial = run_cluster_scale(system, simcfg, cfg).epochs[0].cluster
    fanned = run_cluster_scale(
        system, simcfg, cfg, workers=2, cache=ResultCache(root=str(tmp_path))
    ).epochs[0].cluster
    assert [s.batch_job for s in fanned.servers] == [
        s.batch_job for s in serial.servers
    ]
    assert [server_result_to_dict(s) for s in fanned.servers] == [
        server_result_to_dict(s) for s in serial.servers
    ]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_sweep_command_cold_then_cached(tmp_path, capsys):
    from repro.__main__ import main

    argv = ["sweep", "--systems", "NoHarvest,HardHarvest-Block",
            "--seeds", "0..1", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--horizon-ms", "12", "--accesses", "3",
            "--json", str(tmp_path / "out.json"),
            "--csv", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "Avg P99 across 2 seed(s)" in out
    assert "4 computed, 0 from cache" in out
    assert (tmp_path / "out.json").exists()
    assert (tmp_path / "out.csv").exists()

    assert main(argv[:-4]) == 0  # rerun without export flags
    out = capsys.readouterr().out
    assert "0 computed, 4 from cache" in out
    assert "100% hit rate" in out


def test_cli_sweep_rejects_unknown_system(capsys):
    from repro.__main__ import main

    assert main(["sweep", "--systems", "NotASystem", "--seeds", "0"]) == 2
    assert "unknown system" in capsys.readouterr().err
