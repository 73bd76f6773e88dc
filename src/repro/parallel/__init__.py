"""Parallel sweep execution with content-addressed result caching.

Every multi-point run goes through :func:`run_sweep`: ``python -m repro
sweep``/``compare``/``faults``, :func:`repro.run_systems`,
:func:`repro.core.replicate.replicate`, each epoch of
:func:`repro.cluster_scale.run_cluster_scale`, the service's jobs and the
figure benchmarks' multi-system fixtures.

* :class:`SweepSpec` / :class:`SweepPoint` — declarative (system, seed)
  grids, enumerated in deterministic order, or any list of points.
* :func:`run_sweep` — in-process at ``workers=1``, a process pool above
  it (a :class:`WorkerPool` the caller may own, so its workers outlive
  one call), with per-task timeout, per-point retry after a fixed
  backoff, broken-pool rebuild, optional quarantine of hopeless points,
  and collection keyed by point.
* :class:`ResultCache` — content-addressed on-disk cache under
  ``.repro_cache/`` keyed by config hash + package version, with
  zlib-compressed v2 entries and batch ``get_many``/``put_many``.
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
    SweepError,
    SweepOutcome,
    WorkerPool,
    execute_payload,
    run_sweep,
)
from repro.parallel.sweep import SweepPoint, SweepSpec, parse_seeds

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "parse_seeds",
    "run_sweep",
    "SweepOutcome",
    "WorkerPool",
    "SweepError",
    "DeterminismError",
    "execute_payload",
    "ResultCache",
    "CacheStats",
    "canonical_json",
    "DEFAULT_CACHE_DIR",
    "V2_MAGIC",
]
