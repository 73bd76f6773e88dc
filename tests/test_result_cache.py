"""Tests for the content-addressed result cache (:mod:`repro.parallel.cache`).

Covers the cache-key contract (stability, version sensitivity), hit/miss/
invalidation counters, corruption fallback, eviction on version bump, and
atomicity under concurrent writers.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.parallel.cache import V2_MAGIC, CacheStats, ResultCache, canonical_json

PAYLOAD = {"system": {"name": "X"}, "simulation": {"seed": 3}, "server_index": 0}
RESULT = {"p99": 1.25, "counters": {"lends": 4}}


def test_canonical_json_is_order_insensitive():
    a = canonical_json({"b": 1, "a": {"y": 2, "x": 3}})
    b = canonical_json({"a": {"x": 3, "y": 2}, "b": 1})
    assert a == b


def test_key_stable_and_config_sensitive(tmp_path):
    cache = ResultCache(root=str(tmp_path))
    key = cache.key(PAYLOAD)
    assert key == cache.key(dict(PAYLOAD))  # stable across calls/copies
    assert key != cache.key({**PAYLOAD, "simulation": {"seed": 4}})


def test_key_includes_package_version(tmp_path):
    old = ResultCache(root=str(tmp_path), version="1.0.0")
    new = ResultCache(root=str(tmp_path), version="1.0.1")
    assert old.key(PAYLOAD) != new.key(PAYLOAD)


def test_miss_then_hit_with_counters(tmp_path):
    cache = ResultCache(root=str(tmp_path))
    key = cache.key(PAYLOAD)
    assert cache.get(key) is None
    cache.put(key, PAYLOAD, RESULT)
    assert cache.get(key) == RESULT
    assert cache.stats == CacheStats(hits=1, misses=1, stores=1, invalidations=0)
    assert cache.stats.hit_rate() == 0.5
    assert len(cache) == 1
    # A fresh instance hits the same disk entry.
    fresh = ResultCache(root=str(tmp_path))
    assert fresh.get(key) == RESULT
    assert fresh.stats == CacheStats(hits=1)


def test_version_bump_misses_and_prune_evicts(tmp_path):
    old = ResultCache(root=str(tmp_path), version="1.0.0")
    old.put(old.key(PAYLOAD), PAYLOAD, RESULT)
    new = ResultCache(root=str(tmp_path), version="2.0.0")
    # Different version -> different key -> clean miss, stale entry unused.
    assert new.get(new.key(PAYLOAD)) is None
    assert new.stats.misses == 1
    assert len(new) == 1
    assert new.prune_stale() == 1  # the 1.0.0 entry is evicted
    assert new.stats.invalidations == 1
    assert len(new) == 0
    # Entries under the current version survive pruning.
    new.put(new.key(PAYLOAD), PAYLOAD, RESULT)
    assert new.prune_stale() == 0
    assert new.get(new.key(PAYLOAD)) == RESULT


@pytest.mark.parametrize(
    "garbage", ["", "{not json", '{"version": "1.0.0"}', "repz2\nnot-zlib"]
)
def test_corrupted_entry_falls_back_to_recompute(tmp_path, garbage):
    writer = ResultCache(root=str(tmp_path))
    key = writer.key(PAYLOAD)
    writer.put(key, PAYLOAD, RESULT)
    path = writer._path(key)
    with open(path, "w") as fh:
        fh.write(garbage)
    # Fresh instance: corruption is discovered by a reader whose memory
    # layer has not been primed by the original put.
    cache = ResultCache(root=str(tmp_path))
    assert cache.get(key) is None  # corrupt -> miss, not a crash
    assert cache.stats.invalidations == 1
    assert not os.path.exists(path)  # corrupt file removed
    cache.put(key, PAYLOAD, RESULT)  # recompute path can overwrite
    assert cache.get(key) == RESULT


def test_entry_is_self_describing(tmp_path):
    cache = ResultCache(root=str(tmp_path))
    key = cache.key(PAYLOAD)
    cache.put(key, PAYLOAD, RESULT)
    with open(cache._path(key), "rb") as fh:
        assert fh.read().startswith(V2_MAGIC)  # marked, compressed entry
    entry = cache.read_entry(key)
    assert entry["version"] == cache.version
    assert entry["payload"] == PAYLOAD
    assert entry["result"] == RESULT
    assert cache.read_entry("0" * 64) is None


def test_concurrent_writers_never_leave_a_torn_file(tmp_path):
    """Racing writers on the same key: every read sees a complete entry."""
    cache = ResultCache(root=str(tmp_path))
    key = cache.key(PAYLOAD)
    cache.put(key, PAYLOAD, RESULT)
    errors = []
    stop = threading.Event()

    def writer():
        w = ResultCache(root=str(tmp_path))
        for _ in range(50):
            w.put(key, PAYLOAD, RESULT)

    def reader():
        r = ResultCache(root=str(tmp_path))
        while not stop.is_set():
            got = r.get(key)
            if got != RESULT:
                errors.append(got)
        if r.stats.invalidations:
            errors.append(f"{r.stats.invalidations} invalidations during race")

    threads = [threading.Thread(target=writer) for _ in range(4)]
    watcher = threading.Thread(target=reader)
    watcher.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    watcher.join()
    assert not errors
    assert cache.get(key) == RESULT
    # No stray temp files left behind.
    shard = os.path.dirname(cache._path(key))
    assert [n for n in os.listdir(shard) if n.endswith(".tmp")] == []
