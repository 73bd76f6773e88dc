"""The benchmark's own tests: statistics rules, span arithmetic, and that
every wrapper sits where the program looks its entry point up.

    python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import hostspeed, metrics, scenarios, tracing

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- statistics ----------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [
        ("parent", 0, 100, -1),
        ("a", 10, 30, 0),
        ("b", 20, 50, 0),      # overlaps a: covered once
        ("c", 90, 120, 0),     # runs past the parent: clipped at 100
        ("leaf", 12, 18, 1),   # grandchild: not subtracted from parent
    ]
    agg = tracing.aggregate([spans])
    assert agg["parent"]["self_ns"] == 100 - (40 + 10)
    assert agg["a"]["self_ns"] == 20 - 6
    assert agg["leaf"]["self_ns"] == 6
    assert agg["parent"]["total_ns"] == 100


def test_recursive_span_totals_count_outermost_only():
    spans = [
        ("f", 0, 100, -1),
        ("f", 10, 60, 0),
        ("f", 20, 30, 1),
        ("g", 70, 80, 0),
    ]
    agg = tracing.aggregate([spans])
    assert agg["f"]["n"] == 3
    assert agg["f"]["total_ns"] == 100
    assert agg["f"]["self_ns"] == (100 - 60) + (50 - 10) + 10


def test_recorder_nests_real_calls_per_thread():
    rec = tracing.Recorder()

    def inner():
        return 7

    def outer():
        return rec.call("inner", inner, (), {}) + 1

    assert rec.call("outer", outer, (), {}) == 8
    (spans,) = rec.spans()
    names = {name: parent for name, _, _, parent in spans}
    assert names == {"inner": 1, "outer": -1} or names == {"outer": -1, "inner": 0}
    agg = rec.totals()
    assert agg["outer"]["self_ns"] <= agg["outer"]["total_ns"]


@pytest.mark.parametrize("n, expected", [
    (9, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
    (10_000, 99.9),
])
def test_tail_percentile_has_ten_samples_beyond(n, expected):
    assert metrics.tail_percentile(n) == expected


def test_tail_value_refuses_unsupported_percentile():
    with pytest.raises(ValueError):
        metrics.tail_value(list(range(99)), 90.0)
    assert metrics.tail_value(list(range(101)), 90.0) == pytest.approx(90.0)


def test_percentile_and_quartiles_interpolate():
    assert metrics.percentile([1, 2, 3, 4], 50) == 2.5
    assert metrics.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0
    assert metrics.spread([10.0] * 5) == 0.0


@pytest.mark.parametrize("name, ok", [
    ("run_s", True), ("cluster_scale.route_s", True), ("p-90.x_y", True),
    ("9lives", True), ("", False), ("_hidden", False), (".dot", False),
    ("has space", False), ("slash/name", False), ("x" * 64, True),
    ("x" * 65, False), ("émile", False),
])
def test_metric_name_grammar(name, ok):
    assert metrics.valid_name(name) is ok


def test_every_declared_metric_follows_the_grammar():
    names = list(metrics.END_TO_END) + list(metrics.LAYERS) + list(metrics.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.valid_name(name), name
    for name in list(metrics.END_TO_END) + list(metrics.LAYERS):
        assert metrics.UNIT_RE.fullmatch(metrics.unit_of(name)), name
        assert metrics.better(name) in ("lower", "higher"), name
    assert not set(metrics.UNGATED) & set(metrics.GATED)


def test_worsening_follows_direction():
    assert metrics.worsening("run_s", 10.0, 11.0) == pytest.approx(0.1)
    assert metrics.worsening("sim_req_per_s", 10.0, 11.0) == pytest.approx(-0.1)


def test_sampler_normalizes_by_kernel_time_around_an_operation():
    sampler = hostspeed.Sampler()
    try:
        start = time.monotonic()
        time.sleep(0.3)
        end = time.monotonic()
        kernel = sampler.kernel_ms(start, end)
        assert kernel > 0
        assert sampler.normalize(start, end) == pytest.approx(
            (end - start) * hostspeed.REF_MS / kernel)
        with pytest.raises(RuntimeError):
            sampler.kernel_ms(start - 100.0, start - 99.0)
    finally:
        sampler.stop()
    assert sampler.proc.poll() is not None


# -- output checks -------------------------------------------------------

def test_server_problems_flag_conservation_breaks():
    good = {"requests_arrived": 10, "requests_measured": 9}
    assert scenarios.server_problems("s", good, 3.0, 36) == []
    bad = {"requests_arrived": 5, "requests_measured": 6}
    assert scenarios.server_problems("s", bad, 3.0, 36)
    assert scenarios.server_problems("s", good, 37.0, 36)
    assert scenarios.server_problems("s", good, -0.1, 36)


def test_outcome_is_incorrect_when_any_check_fails():
    out = scenarios.Outcome()
    out.check("a", True)
    assert out.correct
    out.check("b", False, "wrong digest")
    assert not out.correct


def _tiny_cluster(seed=3):
    return scenarios.cluster_config(seed, servers=2, epochs=2, epoch_ms=5.0,
                                    accesses=2, warmup_ms=1.0)


def test_warm_run_fails_on_a_wrong_fill_digest(tmp_path, monkeypatch):
    system, sim, cfg = _tiny_cluster()
    monkeypatch.setattr(scenarios, "warm_config", lambda: (system, sim, cfg))
    cache = scenarios.ResultCache(root=str(tmp_path / "warm-cache"))
    fill = scenarios.cluster_scale.run_cluster_scale(system, sim, cfg, cache=cache)
    for digest, ok in ((fill.digest(), True), ("0" * 64, False)):
        ctx = scenarios.Context(ROOT, str(tmp_path), "cluster-warm", 3, 0.0,
                                False, setup_info=[{"digest": digest,
                                                    "cache_dir": str(tmp_path / "warm-cache")}])
        checks = {name: passed for name, passed, _ in scenarios.run_warm(ctx).checks}
        assert checks["warm-digest-equals-fill"] is ok
        assert checks["warm-all-hits"] and checks["conservation"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cluster-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- wrappers ------------------------------------------------------------

def test_install_wraps_every_target_and_uninstall_restores():
    before = [(owner, attr, vars(owner)[attr] if isinstance(owner, type)
               else getattr(owner, attr)) for owner, attr, _, _ in tracing.targets()]
    installed = tracing.install(tracing.Recorder())
    try:
        for owner, attr, original in before:
            current = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current.__wrapped__ is original, (owner, attr)
    finally:
        installed.uninstall()
    for owner, attr, original in before:
        current = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, (owner, attr)


def test_names_imported_into_callers_are_the_canonical_objects():
    """Each module-level row patches a name some caller looks up; it must
    be the very object the defining module exports."""
    import repro.cluster_scale.rebalance as rebalance
    import repro.cluster_scale.result as result
    import repro.cluster_scale.routing as routing
    import repro.cluster_scale.runner as runner
    import repro.cluster.server as server
    import repro.core.export as export
    import repro.parallel.runner as parallel_runner
    import repro.service.jobs as jobs
    import repro.service.spec as spec
    import repro.workloads.loadgen as loadgen

    assert runner.route_epoch is routing.route_epoch
    assert runner.rebalance_harvest is rebalance.rebalance_harvest
    for module in (parallel_runner, result):
        assert module.server_result_from_dict is export.server_result_from_dict
        assert module.server_result_to_dict is export.server_result_to_dict
    assert server.generate_arrivals_correlated is loadgen.generate_arrivals_correlated
    assert server.generate_arrivals_from_trace is loadgen.generate_arrivals_from_trace
    assert jobs.parse_job_request is spec.parse_job_request
    assert jobs.job_content_id is spec.job_content_id


def _fired(agg, name):
    return agg.get(name, {}).get("n", 0)


@pytest.fixture
def traced(tmp_path):
    rec = tracing.Recorder(str(tmp_path / "trace"))
    os.makedirs(rec.trace_dir)
    installed = tracing.install(rec)
    yield rec
    installed.uninstall()


def test_cluster_wrappers_fire_cold_and_idle_warm(tmp_path, traced):
    system, sim, cfg = _tiny_cluster()
    store = scenarios.CheckpointStore(
        root=str(tmp_path / "ckpt"),
        run_key=scenarios.cluster_run_key(system, sim, cfg, scenarios.BATCH_JOBS))
    cache_dir = str(tmp_path / "cache")
    cold = scenarios.cluster_scale.run_cluster_scale(
        system, sim, cfg, workers=2, cache=scenarios.ResultCache(root=cache_dir),
        checkpoint=store)
    cold.digest()
    agg = tracing.collect(traced)
    layers = tracing.layer_metrics(agg, 2)
    for name in ("cluster_scale.run", "cluster_scale.route", "cluster_scale.rebalance",
                 "cluster_scale.digest", "cluster_scale.checkpoint",
                 "parallel.payload_json", "parallel.key_json", "parallel.get_many",
                 "parallel.put_many", "parallel.run_sweep",
                 "parallel.execute_payload", "core.decode", "core.encode",
                 "core.deserialize", "cluster.build", "cluster.sim", "sim.run",
                 "mem.walk", "hw.qm", "workloads.sample", "workloads.arrivals",
                 "harvest.idle"):
        assert _fired(agg, name) > 0, name
    assert layers["parallel.cache_hits"] == 0
    assert layers["cluster.swq_ops"] == 0
    assert layers["mem.sets_built"] > 0 and layers["sim.events"] > 0
    assert layers["cluster_scale.routed"] == cfg.requests
    assert layers["parallel.worker_busy_frac"] > 0

    traced.reset()
    for name in os.listdir(traced.trace_dir):
        os.remove(os.path.join(traced.trace_dir, name))
    warm = scenarios.cluster_scale.run_cluster_scale(
        system, sim, cfg, workers=2, cache=scenarios.ResultCache(root=cache_dir))
    assert warm.digest() == cold.digest()
    layers = tracing.layer_metrics(tracing.collect(traced), 2)
    assert layers["cluster.builds"] == 0
    assert layers["sim.events"] == 0 and layers["mem.accesses"] == 0
    assert layers["parallel.cache_misses"] == 0
    assert layers["parallel.cache_hits"] == cfg.servers * cfg.epochs
    assert layers["core.decode_s"] > 0


def test_service_wrappers_fire_in_the_traced_server(tmp_path):
    trace_dir = str(tmp_path / "trace")
    os.makedirs(trace_dir)
    ctx = scenarios.Context(ROOT, str(tmp_path), "service-sweep", 1, 0.0, True)
    server = scenarios.Server(ctx, str(tmp_path / "state"), trace_dir)
    try:
        client = scenarios.ServiceClient(port=server.port, timeout_s=60.0)
        session = scenarios.Session(client)
        body = dict(scenarios.job_bodies(1, 1)[0],
                    simulation={"horizon_ms": 4.0, "warmup_ms": 1.0,
                                "accesses_per_segment": 2})
        _, end, payload, job_id = session.fresh(body)
        _, again, repeat, same_id = session.resubmit(body)
    finally:
        assert server.stop() == 0
    assert end is not None and again is not None
    assert repeat["digest"] == payload["digest"] and same_id == job_id
    assert session.not_deduped == 0 and session.non2xx == 0
    agg = tracing.collect(tracing.Recorder(trace_dir))
    for name in ("service.parse", "service.identity", "service.store_read",
                 "service.store_write", "cluster.swq", "mem.flush", "harvest.idle",
                 "parallel.execute_payload", "hw.qm"):
        assert _fired(agg, name) > 0, name
    assert _fired(agg, "cluster_scale.run") == 0
