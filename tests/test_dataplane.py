"""Data-plane fast path: split-key hashing, cache v2, worker state reuse.

Three invariants anchor this layer:

* **Key stability** — the split-key fast path
  (:meth:`SweepPoint.payload_json` + :meth:`ResultCache.key_json`) must
  reproduce the legacy full-payload keys *byte-for-byte*, pinned against
  ``tests/data/golden_cache_keys.json`` so existing on-disk caches keep
  hitting across the optimization.
* **Format migration** — readers serve legacy v1 entries transparently
  (the committed ``tests/data/cache_v1`` directory), and every
  maintenance surface (``disk_stats``, ``prune_stale``, the CLI)
  understands both formats side by side.  Well-formed JSON of the wrong
  shape is a corrupt entry, never a crash or a hit.
* **Result parity** — split keys, v2 entries and the worker memo give
  bit-identical sweep fingerprints, warm or cold, serial or pooled.

Plus the job-store TTL satellite: eviction of terminal job records via
the manager, the offline pruner, and the CLI.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import repro
from repro.config import SimulationConfig
from repro.core.export import server_result_to_dict
from repro.core.presets import all_systems
from repro.parallel import (
    CacheStats,
    ResultCache,
    SweepPoint,
    SweepSpec,
    V2_MAGIC,
    canonical_json,
    run_sweep,
)
from repro.parallel.sweep import clear_fragment_memo
from tests._cache_key_golden import GOLDEN_VERSION, all_cases, load_golden

TINY = SimulationConfig(horizon_ms=10.0, warmup_ms=2.0, accesses_per_segment=2)

PAYLOAD = {"system": {"name": "X"}, "simulation": {"seed": 3}, "server_index": 0}
RESULT = {"p99": 1.25, "counters": {"lends": 4}}

#: Legacy v1 entries (plain ``json.dumps`` of ``{version, payload,
#: result}``), written by the v1 writer before it was removed: the
#: PAYLOAD/RESULT pair plus both points of ``tiny_spec(seeds=(0,))``.
#: They carry a fixed version string, so package version bumps leave
#: them current.
V1_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "cache_v1")
V1_VERSION = "v1-fixture"


def tiny_spec(n_systems=2, seeds=(0, 1)) -> SweepSpec:
    systems = dict(list(all_systems().items())[:n_systems])
    return SweepSpec(systems=systems, seeds=seeds, sim=TINY)


def v1_cache(tmp_path) -> ResultCache:
    """A cache over a private copy of the v1 fixture directory."""
    root = str(tmp_path / "cache_v1")
    shutil.copytree(V1_FIXTURE, root)
    return ResultCache(root=root, version=V1_VERSION)


def fingerprints(results) -> dict:
    return {
        label: canonical_json(server_result_to_dict(r))
        for label, r in results.items()
    }


# ---------------------------------------------------------------------------
# Split-key hashing
# ---------------------------------------------------------------------------
GOLDEN = load_golden()
CASES = list(all_cases())


@pytest.mark.parametrize(
    "label,point", CASES, ids=[label for label, _ in CASES]
)
def test_payload_json_is_byte_identical_to_canonical(label, point):
    clear_fragment_memo()
    cold = point.payload_json()  # memo empty: every fragment built fresh
    warm = point.payload_json()  # memo primed: fragments served by identity
    assert cold == canonical_json(point.payload())
    assert warm == cold


@pytest.mark.parametrize(
    "label,point", CASES, ids=[label for label, _ in CASES]
)
def test_split_keys_match_golden_pins(label, point):
    """Split-key keying reproduces the pinned legacy on-disk keys."""
    cache = ResultCache(root="/nonexistent", version=GOLDEN_VERSION)
    assert cache.key_json(point.payload_json()) == GOLDEN[label]
    assert cache.key(point.payload()) == GOLDEN[label]


def test_fragment_memo_shares_instances_across_points():
    """Points sharing config instances reuse fragments, and the shared
    base plus tiny delta assembles to distinct, correct payloads."""
    system = next(iter(all_systems().values()))
    points = [
        SweepPoint(label=f"s{i}", system=system, sim=TINY, server_index=i)
        for i in range(4)
    ]
    texts = [p.payload_json() for p in points]
    assert len(set(texts)) == len(points)  # server_index delta is keyed
    for p, text in zip(points, texts):
        assert text == canonical_json(p.payload())


# ---------------------------------------------------------------------------
# Cache v2: format, migration, LRU layer, batch APIs
# ---------------------------------------------------------------------------
def test_v1_entry_readable_under_v2(tmp_path):
    cache = v1_cache(tmp_path)
    key = cache.key(PAYLOAD)
    with open(cache._path(key), "rb") as fh:
        assert not fh.read().startswith(V2_MAGIC)  # plain JSON on disk
    assert cache.get(key) == RESULT  # transparent read, no invalidation
    assert cache.stats == CacheStats(hits=1)
    assert cache.read_entry(key)["payload"] == PAYLOAD


def test_v2_entries_are_marked_and_compressed(tmp_path):
    cache = ResultCache(root=str(tmp_path))
    big_result = {"rows": [{"i": i, "x": i * 0.5} for i in range(500)]}
    key = cache.key(PAYLOAD)
    cache.put(key, PAYLOAD, big_result)
    blob = open(cache._path(key), "rb").read()
    assert blob.startswith(V2_MAGIC)
    plain = len(json.dumps(
        {"version": cache.version, "payload": PAYLOAD, "result": big_result}
    ))
    assert len(blob) < plain / 2  # genuinely compressed
    fresh = ResultCache(root=str(tmp_path))
    assert fresh.get(key) == big_result


def test_mixed_format_disk_stats_and_prune(tmp_path):
    cache = v1_cache(tmp_path)  # three current v1 entries to start with
    other = {**PAYLOAD, "server_index": 1}
    cache.put(cache.key(other), other, RESULT)
    stale = ResultCache(root=cache.root, version="0.0.1")
    stale_payload = {**PAYLOAD, "server_index": 2}
    stale.put(stale.key(stale_payload), stale_payload, RESULT)

    disk = cache.disk_stats()
    assert disk["entries"] == 5
    assert disk["by_format"] == {"v1": 3, "v2": 2}
    assert disk["current"] == 4 and disk["stale"] == 1
    assert disk["by_version"] == {V1_VERSION: 4, "0.0.1": 1}

    # prune_stale removes the stale v2 entry, keeps both current formats.
    assert cache.prune_stale() == 1
    disk = cache.disk_stats()
    assert disk["entries"] == 4 and disk["stale"] == 0
    assert disk["by_format"] == {"v1": 3, "v2": 1}


@pytest.mark.parametrize(
    "text",
    [
        "null",
        "42",
        "[]",
        '"a string that mentions result"',
        '{"version": "VERSION", "result": 5}',
        '{"version": "VERSION", "result": null}',
        '{"result": {}}',
    ],
    ids=["null", "number", "list", "string", "int-result", "null-result",
         "no-version"],
)
def test_wrong_shape_v1_entry_is_corrupt(tmp_path, text):
    """Well-formed JSON of the wrong shape is a corrupt entry everywhere:
    a miss plus an invalidation that deletes it, ``<corrupt>`` in
    ``disk_stats``, and removed by ``prune_stale``."""
    cache = ResultCache(root=str(tmp_path))
    key = cache.key(PAYLOAD)
    path = cache._path(key)

    def plant():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text.replace("VERSION", repro.__version__))

    plant()
    assert cache.get(key) is None
    assert cache.stats.invalidations == 1 and cache.stats.hits == 0
    assert not os.path.exists(path)
    plant()
    disk = cache.disk_stats()
    assert disk["entries"] == 1 and disk["by_version"] == {"<corrupt>": 1}
    assert cache.prune_stale() == 1
    assert not os.path.exists(path)


def test_get_many_counter_parity_with_single_gets(tmp_path):
    payloads = [{**PAYLOAD, "server_index": i} for i in range(4)]
    seed = ResultCache(root=str(tmp_path))
    keys = [seed.key(p) for p in payloads]
    for k, p in zip(keys[:2], payloads[:2]):  # 2 present, 2 missing
        seed.put(k, p, RESULT)

    loop_cache = ResultCache(root=str(tmp_path))
    batch_cache = ResultCache(root=str(tmp_path))
    singles = {}
    for k in keys:
        hit = loop_cache.get(k)
        if hit is not None:
            singles[k] = hit
    batched = batch_cache.get_many(keys)
    assert batched == singles
    assert batch_cache.stats == loop_cache.stats
    assert batch_cache.stats.hits == 2 and batch_cache.stats.misses == 2


def test_put_many_stores_and_counts(tmp_path):
    cache = ResultCache(root=str(tmp_path))
    payloads = [{**PAYLOAD, "server_index": i} for i in range(3)]
    entries = [(cache.key(p), p, {"i": p["server_index"]}) for p in payloads]
    assert cache.put_many(entries) == 3
    assert cache.stats.stores == 3
    fresh = ResultCache(root=str(tmp_path))
    assert fresh.get_many([k for k, _, _ in entries]) == {
        k: r for k, _, r in entries
    }


def test_put_accepts_canonical_payload_string(tmp_path):
    cache = ResultCache(root=str(tmp_path))
    point_json = canonical_json(PAYLOAD)
    key = cache.key_json(point_json)
    assert key == cache.key(PAYLOAD)
    cache.put(key, point_json, RESULT)
    assert cache.read_entry(key)["payload"] == PAYLOAD


# ---------------------------------------------------------------------------
# TOCTOU tolerance: concurrent pruners mid-walk
# ---------------------------------------------------------------------------
def test_disk_stats_tolerates_entry_vanishing_mid_walk(tmp_path, monkeypatch):
    cache = ResultCache(root=str(tmp_path))
    payloads = [{**PAYLOAD, "server_index": i} for i in range(3)]
    keys = [cache.key(p) for p in payloads]
    for k, p in zip(keys, payloads):
        cache.put(k, p, RESULT)
    victim = cache._path(keys[0])

    real_getsize = os.path.getsize

    def racing_getsize(path):
        if os.path.samefile(os.path.dirname(path), os.path.dirname(victim)) \
                and os.path.basename(path) == os.path.basename(victim):
            os.remove(victim)
            raise FileNotFoundError(path)
        return real_getsize(path)

    monkeypatch.setattr(os.path, "getsize", racing_getsize)
    disk = cache.disk_stats()
    # The vanished entry is skipped — not counted, not "<corrupt>".
    assert disk["entries"] == 2
    assert "<corrupt>" not in disk["by_version"]


def test_prune_stale_tolerates_entry_vanishing_mid_walk(tmp_path, monkeypatch):
    cache = ResultCache(root=str(tmp_path))
    key = cache.key(PAYLOAD)
    cache.put(key, PAYLOAD, RESULT)
    victim = cache._path(key)
    real_open = open

    def racing_open(path, *args, **kwargs):
        if isinstance(path, str) and path == victim:
            os.remove(victim)
            raise FileNotFoundError(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", racing_open)
    assert cache.prune_stale() == 0  # skipped, not miscounted as stale
    assert cache.stats.invalidations == 0


def test_walk_tolerates_shard_vanishing_mid_walk(tmp_path, monkeypatch):
    cache = ResultCache(root=str(tmp_path))
    key = cache.key(PAYLOAD)
    cache.put(key, PAYLOAD, RESULT)
    shard_dir = os.path.dirname(cache._path(key))
    real_listdir = os.listdir

    def racing_listdir(path):
        names = real_listdir(path)
        if os.path.samefile(path, str(tmp_path)) and os.path.isdir(shard_dir):
            shutil.rmtree(shard_dir)  # pruner drops the whole shard
        return names

    monkeypatch.setattr(os, "listdir", racing_listdir)
    assert cache.disk_stats()["entries"] == 0
    assert len(cache) == 0


# ---------------------------------------------------------------------------
# Runner: worker memo, compressed chunk IPC, v1 migration
# ---------------------------------------------------------------------------
def test_memoized_part_reuses_equal_content():
    import repro.parallel.runner as runner_mod

    runner_mod._init_worker()
    calls = []

    def build(part):
        calls.append(part)
        return dict(part)

    a = runner_mod._memoized_part("system", {"x": 1}, build)
    b = runner_mod._memoized_part("system", {"x": 1}, build)
    c = runner_mod._memoized_part("system", {"x": 2}, build)
    assert a is b and a is not c
    assert len(calls) == 2
    # Kind participates in the key: same content, different kind -> rebuild.
    runner_mod._memoized_part("simulation", {"x": 1}, build)
    assert len(calls) == 3
    runner_mod._init_worker()
    assert runner_mod._WORKER_MEMO == {}


def test_init_worker_imports_numpy_ma():
    """``np.percentile`` imports ``numpy.ma`` on its first call; a pool
    worker has it from ``_init_worker``, not from inside its first point."""
    code = (
        "import sys\n"
        "from repro.parallel.runner import _init_worker\n"
        "before = 'numpy.ma' in sys.modules\n"
        "_init_worker()\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["False", "True"]


def test_run_sweep_serves_every_point_from_v1_directory(tmp_path):
    """A sweep over the committed v1 directory hits on every point, with
    results bit-identical to a fresh run: split keys equal the keys the
    legacy runner wrote, and the reader decodes v1 exactly."""
    spec = tiny_spec(n_systems=2, seeds=(0,))
    cache = v1_cache(tmp_path)
    warm = run_sweep(spec, workers=1, cache=cache)
    assert warm.from_cache == 2 and warm.computed == 0
    assert cache.stats.invalidations == 0
    fresh = run_sweep(spec, workers=1)
    assert fingerprints(warm.results) == fingerprints(fresh.results)


def test_pooled_fast_path_matches_serial(tmp_path):
    spec = tiny_spec(n_systems=2, seeds=(0,))
    serial = run_sweep(spec, workers=1)
    pooled = run_sweep(spec, workers=2)
    assert fingerprints(serial.results) == fingerprints(pooled.results)


# ---------------------------------------------------------------------------
# Job-store TTL / eviction
# ---------------------------------------------------------------------------
def _terminal_record(store, job_id, state="done", finished_s=None):
    from repro.service.jobs import JobRecord

    record = JobRecord(
        job_id=job_id,
        kind="sweep",
        request={"kind": "sweep"},
        state=state,
        submitted_s=finished_s or time.time(),
        finished_s=finished_s,
    )
    store.save(record)
    store.write_result(job_id, {"digest": "d" * 8})
    return record


def test_job_store_delete_removes_siblings(tmp_path):
    from repro.service.jobs import JobStore

    store = JobStore(str(tmp_path))
    _terminal_record(store, "a" * 12, finished_s=time.time())
    with open(store.trace_path("a" * 12), "w") as fh:
        fh.write("{}")
    assert store.delete("a" * 12) is True
    for path in (store.job_path("a" * 12), store.result_path("a" * 12),
                 store.trace_path("a" * 12)):
        assert not os.path.exists(path)
    assert store.delete("a" * 12) is False  # already gone


def test_manager_evicts_only_expired_terminal_jobs(tmp_path):
    from repro.service.jobs import JobManager, JobStore

    store = JobStore(str(tmp_path))
    now = time.time()
    _terminal_record(store, "old0", state="done", finished_s=now - 100)
    _terminal_record(store, "old1", state="failed", finished_s=now - 90)
    _terminal_record(store, "new0", state="done", finished_s=now - 1)
    running = _terminal_record(store, "run0", state="running",
                               finished_s=now - 500)
    assert running.state == "running"

    manager = JobManager(store)
    manager.recover()
    evicted = manager.evict_expired(ttl_s=30.0, now=now)
    assert evicted == ["old0", "old1"]  # oldest first; new0/run0 kept
    assert manager.evicted == 2
    assert manager.get("old0") is None
    assert manager.get("new0") is not None
    assert manager.get("run0") is not None  # non-terminal never evicted
    assert not os.path.exists(store.result_path("old0"))
    # Second sweep finds nothing new.
    assert manager.evict_expired(ttl_s=30.0, now=now) == []


def test_prune_job_records_offline(tmp_path):
    from repro.service.jobs import JobStore, prune_job_records

    store = JobStore(str(tmp_path))
    now = time.time()
    _terminal_record(store, "old0", finished_s=now - 100)
    _terminal_record(store, "live", state="running", finished_s=None)
    assert prune_job_records(store, ttl_s=30.0, now=now) == 1
    assert not os.path.exists(store.job_path("old0"))
    assert os.path.exists(store.job_path("live"))


def test_cli_cache_prune_jobs(tmp_path, capsys):
    from repro.__main__ import main
    from repro.service.jobs import JobStore

    store = JobStore(str(tmp_path))
    _terminal_record(store, "old0", finished_s=time.time() - 100)
    stats_json = str(tmp_path / "stats.json")
    assert main([
        "cache", "--cache-dir", str(tmp_path),
        "--prune-jobs", "30", "--stats-json", stats_json,
    ]) == 0
    out = capsys.readouterr().out
    assert "pruned 1 terminal job record(s)" in out
    with open(stats_json) as fh:
        stats = json.load(fh)
    assert stats["pruned_jobs"] == 1 and stats["jobs"] == 0


def test_service_evict_loop_end_to_end(tmp_path):
    from repro.service import start_in_thread
    from repro.service.jobs import JobStore

    store = JobStore(str(tmp_path))
    _terminal_record(store, "old0", finished_s=time.time() - 100)
    handle = start_in_thread(cache_dir=str(tmp_path), service_workers=0,
                             job_ttl_s=2.0)
    try:
        deadline = time.time() + 10
        while handle.service.manager.get("old0") and time.time() < deadline:
            time.sleep(0.1)
        assert handle.service.manager.get("old0") is None
        assert handle.service.manager.evicted == 1
        assert not os.path.exists(store.job_path("old0"))
    finally:
        handle.stop()


def test_metrics_expose_evictions_and_memory_hits(tmp_path):
    from repro.service.jobs import JobManager, JobStore
    from repro.service.metrics import MetricsRegistry

    manager = JobManager(JobStore(str(tmp_path)))
    manager.evicted = 3
    manager.fold_cache_stats(CacheStats(hits=5))
    text = MetricsRegistry(manager, service_workers=1).render()
    assert "repro_service_jobs_evicted_total 3" in text
    assert "repro_cache_hits_total 5" in text
