"""Parallel sweep execution with content-addressed result caching.

The fan-out/cache substrate behind ``python -m repro sweep``, the
``workers=``/``cache=`` path of :func:`repro.run_systems`, each epoch of
:func:`repro.cluster_scale.run_cluster_scale`, and the figure benchmarks:

* :class:`SweepSpec` / :class:`SweepPoint` — declarative (system, seed,
  override) grids, enumerated in deterministic order.
* :func:`run_sweep` — process-pool execution with per-task timeout,
  per-point retry with capped exponential backoff (:class:`RetryPolicy`),
  broken-pool rebuild, optional quarantine of hopeless points, and
  collection keyed by point.
* :class:`ResultCache` — content-addressed on-disk cache under
  ``.repro_cache/`` keyed by config hash + package version, with
  zlib-compressed v2 entries (legacy v1 entries are read, never
  written), batch ``get_many``/``put_many``, and a bounded in-process LRU
  layer.
"""

from repro.parallel.cache import (
    DEFAULT_CACHE_DIR,
    V2_MAGIC,
    CacheStats,
    ResultCache,
    canonical_json,
)
from repro.parallel.runner import (
    DeterminismError,
    RetryPolicy,
    SweepError,
    SweepOutcome,
    execute_payload,
    run_sweep,
)
from repro.parallel.sweep import SweepPoint, SweepSpec, parse_seeds

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "parse_seeds",
    "run_sweep",
    "RetryPolicy",
    "SweepOutcome",
    "SweepError",
    "DeterminismError",
    "execute_payload",
    "ResultCache",
    "CacheStats",
    "canonical_json",
    "DEFAULT_CACHE_DIR",
    "V2_MAGIC",
]
