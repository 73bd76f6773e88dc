"""Content-addressed on-disk result cache for sweep points.

Cache-key contract (also documented in ``docs/api.md``):

* The key is ``sha256(canonical_json(payload) + "\\n" + version)`` where
  ``payload`` is :meth:`SweepPoint.payload` — the *complete* serialized
  experiment description (system config, simulation config, batch job,
  server index) — and ``version`` is the ``repro`` package version.
* ``canonical_json`` sorts keys and uses compact separators, so two
  configs that compare equal always hash equal regardless of field
  declaration or dict insertion order.
* Any config field change, seed change, or package version bump therefore
  produces a *different* key: stale results are never returned, they are
  merely orphaned (and reclaimable with :meth:`ResultCache.prune_stale`).
* :meth:`ResultCache.key_json` accepts a pre-serialized canonical payload
  (e.g. :meth:`SweepPoint.payload_json`, the split-key fast path) and is
  exactly equivalent to :meth:`ResultCache.key` on the parsed dict.

Storage formats — both live under ``<root>/<key[:2]>/<key>.json``:

* **v2** (written): a ``repz2\\n`` magic marker followed by a
  zlib-compressed body laid out as ``version\\npayload_json\\nresult_json``.
  Compression shrinks the multi-KB config+result JSON ~5-10x on disk, and
  the line layout means :meth:`ResultCache.get` checks the version and
  parses *only* the result line — the payload tree (usually the larger
  half of the entry) is never re-parsed on a warm hit.
* **v1** (legacy, read only): plain JSON text
  ``{"version", "payload", "result"}``.  Readers handle v1 entries
  transparently, so a directory written by an older release keeps
  hitting after an upgrade.

Every lookup reads the disk entry.  Writes go through
:func:`repro.core.ioutil.write_bytes`, so a crash, a full disk or two
writers racing on one point never leave a torn entry (last writer wins,
with identical bytes, as runs are deterministic); an entry that fails to
inflate (zlib checks v2 streams) is a miss.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple, Union

import repro
from repro.core import ioutil
from repro.core.ioutil import canonical_json

#: Default cache location, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: v2 entries start with this marker; everything after it is the
#: zlib-compressed ``version\npayload\nresult`` body.
V2_MAGIC = b"repz2\n"

#: zlib level for v2 entries: 6 is the sweet spot for JSON text (within a
#: few percent of level 9's ratio at a fraction of the CPU).
_V2_COMPRESSION_LEVEL = 6


def _build_zdict() -> bytes:
    """The shared zlib preset dictionary for v2 entries.

    A cache entry is mostly the canonical JSON of a config payload, and
    every payload is a near-copy of the preset configs — so priming the
    DEFLATE window with the presets' payload JSON (plus the common result
    field names) lets each ~5 KB entry compress to a few hundred bytes
    instead of the ~2 KB self-windowed zlib manages.

    The dictionary is a *deterministic function of the default configs*:
    the same package version always rebuilds the same bytes, so entries
    written by one process inflate in any other.  Editing config defaults
    or result field names changes the dictionary, which makes existing v2
    entries fail to inflate — they are then invalidated and recomputed,
    exactly as a config-schema change already orphans them via the key.
    zlib's dictionary checksum makes the failure loud, never silent.
    """
    from repro.config import SimulationConfig
    from repro.core.presets import all_systems
    from repro.parallel.sweep import SweepPoint
    from repro.workloads.batch import BATCH_JOBS

    sim = SimulationConfig()
    parts = [
        SweepPoint(
            label="zdict", system=system, sim=sim,
            batch_job=BATCH_JOBS[index % len(BATCH_JOBS)],
        ).payload_json()
        for index, (_, system) in enumerate(sorted(all_systems().items()))
    ]
    # Common result-dict vocabulary, so the result line benefits too.
    parts.append(
        '"avg_busy_cores":"avg_harvest_cores":"batch_units":"breakdown":'
        '"counters":"flush_us":"label":"p50_ms":"p99_ms":"queue_us":'
        '"reassign_us":"requests_completed":"requests_dropped":"service_us":'
        '"system":"frontend":"compose-post":"home-timeline":"user-timeline":'
        '"search-hotel":"recommend":"reserve":"geo":"profile":'
    )
    # zlib favors matches near the dictionary's end; the last 32 KiB win.
    return "\n".join(parts).encode("utf-8")[-32768:]


#: Lazily-built singleton (building it imports the preset configs).
_ZDICT: Optional[bytes] = None


def _zdict() -> bytes:
    global _ZDICT
    if _ZDICT is None:
        _ZDICT = _build_zdict()
    return _ZDICT


def _v2_compress(body: bytes) -> bytes:
    co = zlib.compressobj(
        _V2_COMPRESSION_LEVEL, zlib.DEFLATED, zlib.MAX_WBITS,
        zlib.DEF_MEM_LEVEL, zlib.Z_DEFAULT_STRATEGY, _zdict(),
    )
    return co.compress(body) + co.flush()


def _v2_decompress(data: bytes) -> bytes:
    do = zlib.decompressobj(zlib.MAX_WBITS, zdict=_zdict())
    out = do.decompress(data)
    out += do.flush()
    if not do.eof:
        raise ValueError("truncated v2 cache entry")
    return out


def _decode_v1(blob: bytes) -> Dict[str, Any]:
    """A legacy v1 entry: a JSON object with a string ``version`` and an
    object ``result``.

    Well-formed JSON of any other shape (``null``, a number, a string, a
    non-object result) raises :class:`ValueError`, so every reader treats
    it like any other corrupt entry.
    """
    entry = json.loads(blob.decode("utf-8"))
    if not (
        isinstance(entry, dict)
        and isinstance(entry.get("version"), str)
        and isinstance(entry.get("result"), dict)
    ):
        raise ValueError("malformed v1 cache entry")
    return entry


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries dropped because they were unreadable or recorded under a
    #: different package version than the file location implies.
    invalidations: int = 0
    #: Puts that :meth:`ResultCache.put_many` skipped on an ``OSError``
    #: (a full disk, say); the result is returned all the same.
    store_failures: int = 0

    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "store_failures": self.store_failures,
            "hit_rate": self.hit_rate(),
        }


@dataclass
class ResultCache:
    """Content-addressed store mapping sweep-point payloads to result dicts."""

    root: str = DEFAULT_CACHE_DIR
    version: str = field(default_factory=lambda: repro.__version__)
    stats: CacheStats = field(default_factory=CacheStats)

    def key(self, payload: Dict[str, Any]) -> str:
        """The content address of a sweep-point payload under this version."""
        return self.key_json(canonical_json(payload))

    def key_json(self, payload_json: str) -> str:
        """:meth:`key` for an already-canonical payload string.

        The split-key fast path: :meth:`SweepPoint.payload_json` assembles
        the canonical string from memoized fragments, and this hashes it
        without ever materializing the payload dict.  Guaranteed equal to
        ``key(json.loads(payload_json))`` for canonical input.
        """
        material = payload_json + "\n" + self.version
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # -- entry codec --------------------------------------------------

    def _encode(self, payload: Union[Dict[str, Any], str],
                result: Dict[str, Any]) -> bytes:
        payload_json = (
            payload if isinstance(payload, str) else canonical_json(payload)
        )
        # The result line preserves dict insertion order (no sort_keys),
        # exactly as v1's json.dumps did: downstream float reductions
        # (e.g. the cluster merge averaging p99 maps) iterate result
        # dicts, and reordering keys would perturb summation order — a
        # last-ulp digest change between warm and cold runs.
        result_json = json.dumps(
            result, separators=(",", ":"), allow_nan=True
        )
        body = self.version + "\n" + payload_json + "\n" + result_json
        return V2_MAGIC + _v2_compress(body.encode("utf-8"))

    @staticmethod
    def _decode(blob: bytes, payload: bool = False) -> Dict[str, Any]:
        """``{version, payload, result}`` of an entry blob, either format;
        a v2 entry's payload is parsed only when ``payload`` is true (else
        None), so a warm :meth:`get` never parses it."""
        if blob.startswith(V2_MAGIC):
            body = _v2_decompress(blob[len(V2_MAGIC):]).decode("utf-8")
            version, sep, rest = body.partition("\n")
            payload_json, sep2, result_json = rest.partition("\n")
            if not sep or not sep2:
                raise ValueError("truncated v2 cache entry")
            return {
                "version": version,
                "payload": json.loads(payload_json) if payload else None,
                "result": json.loads(result_json),
            }
        return _decode_v1(blob)

    def read_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """The full stored entry (version/payload/result), either format.

        Audit/tooling path — :meth:`get` is the hot path and deliberately
        skips the payload parse this performs.  Returns None if absent.
        """
        try:
            with open(self._path(key), "rb") as fh:
                return self._decode(fh.read(), payload=True)
        except FileNotFoundError:
            return None

    # -- core API -----------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached result dict for ``key``, or None on miss.

        The disk entry may be in either format.  A corrupted or
        version-mismatched entry counts as a miss (plus an invalidation)
        and is deleted so the recompute can overwrite it.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
            entry = self._decode(blob)
            if entry["version"] != self.version:
                raise ValueError("stale cache entry")
        except (FileNotFoundError, NotADirectoryError):
            # No entry, or a plain file where its shard directory should
            # be: a miss, not a corrupt entry.
            self.stats.misses += 1
            return None
        except (ValueError, OSError, zlib.error):
            self.stats.misses += 1
            self.stats.invalidations += 1
            with contextlib.suppress(OSError):
                os.remove(path)
            return None
        self.stats.hits += 1
        return entry["result"]

    def get_many(self, keys: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        """Batch :meth:`get`: returns ``{key: result}`` for the hits only.

        Counter semantics are exactly N single gets (duplicates in
        ``keys`` are looked up — and counted — once each).
        """
        out: Dict[str, Dict[str, Any]] = {}
        for key in keys:
            hit = self.get(key)
            if hit is not None:
                out[key] = hit
        return out

    def put(self, key: str, payload: Union[Dict[str, Any], str],
            result: Dict[str, Any]) -> None:
        """Store a result with :func:`repro.core.ioutil.write_bytes`.

        ``payload`` may be the dict or its canonical JSON string — the
        runner passes the split-key string straight through so the
        payload tree is never re-parsed just to be stored.
        """
        ioutil.write_bytes(self._path(key), self._encode(payload, result))
        self.stats.stores += 1

    def put_many(
        self,
        entries: Iterable[Tuple[str, Union[Dict[str, Any], str], Dict[str, Any]]],
    ) -> int:
        """Batch :meth:`put`, best effort; returns the number stored.

        A put that raises ``OSError`` is skipped and counted in
        ``stats.store_failures``: the caller already holds the result, and
        a missing entry only costs a recompute later.
        """
        count = 0
        for key, payload, result in entries:
            try:
                self.put(key, payload, result)
            except OSError:
                self.stats.store_failures += 1
                continue
            count += 1
        return count

    # -- maintenance --------------------------------------------------

    def _entry_paths(self) -> Iterable[str]:
        """Entry files on disk, tolerating concurrent pruners.

        A shard directory or entry removed between ``listdir`` and the
        caller's open/stat simply vanishes from the walk — a concurrently
        pruned file must never be misreported as corrupt.
        """
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            # A shard is named by its keys' first two hex digits; other
            # directories under the root (the job store) are not the cache's.
            if not re.fullmatch("[0-9a-f]{2}", shard) or not os.path.isdir(shard_dir):
                continue
            try:
                names = sorted(os.listdir(shard_dir))
            except FileNotFoundError:
                continue  # shard pruned mid-walk
            for name in names:
                if name.endswith(".json"):
                    yield os.path.join(shard_dir, name)

    def prune_stale(self) -> int:
        """Delete entries recorded under a different package version.

        Because the version participates in the key, stale entries can
        never be *returned*; pruning just reclaims their disk space after
        a version bump.  Returns the number of entries removed.
        """
        removed = 0
        for path in self._entry_paths():
            try:
                with open(path, "rb") as fh:
                    blob = fh.read()
                stale = self._decode(blob)["version"] != self.version
            except FileNotFoundError:
                continue  # entry pruned mid-walk: nothing to reclaim
            except (ValueError, OSError, zlib.error):
                stale = True
            if stale:
                try:
                    os.remove(path)
                    removed += 1
                    self.stats.invalidations += 1
                except OSError:
                    pass
        return removed

    def disk_stats(self) -> Dict[str, Any]:
        """Walk the cache directory and summarize what is on disk.

        Returns ``entries`` / ``bytes`` / ``current`` / ``stale`` counts
        and ``by_version`` and ``by_format`` breakdowns (unreadable
        entries count under ``"<corrupt>"``) — the payload behind
        ``python -m repro cache``.  Entries deleted concurrently during
        the walk are skipped, not miscounted.
        """
        stats: Dict[str, Any] = {
            "entries": 0, "bytes": 0, "current": 0, "stale": 0,
            "by_version": {}, "by_format": {},
        }
        for path in self._entry_paths():
            try:
                size = os.path.getsize(path)
                with open(path, "rb") as fh:
                    blob = fh.read()
            except FileNotFoundError:
                continue  # entry pruned mid-walk
            except OSError:
                # Present but unreadable (permissions, I/O error): it
                # occupies the cache, so count it — as corrupt.
                size, blob = 0, b""
            if blob:
                fmt = "v2" if blob.startswith(V2_MAGIC) else "v1"
            else:
                fmt = "<corrupt>"
            try:
                version = self._decode(blob)["version"]
            except (ValueError, OSError, zlib.error):
                version = "<corrupt>"
            stats["entries"] += 1
            stats["bytes"] += size
            if version == self.version:
                stats["current"] += 1
            else:
                stats["stale"] += 1
            stats["by_version"][version] = (
                stats["by_version"].get(version, 0) + 1
            )
            stats["by_format"][fmt] = stats["by_format"].get(fmt, 0) + 1
        return stats

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())
