"""Shared infrastructure for the per-figure benchmark harnesses.

Each ``benchmarks/test_*`` file regenerates one table or figure of the
paper: it runs the relevant systems on the standard workload, prints the
same rows/series the paper reports, and asserts the qualitative shape
(who wins, roughly by how much). Expensive multi-system runs are shared
through session-scoped fixtures.

Scale note: ``BENCH_SIM`` simulates 500 ms of an 8-Primary-VM server per
system — large enough for stable P99s at the paper's request rates, small
enough that the full suite finishes in minutes. Set ``REPRO_BENCH_SCALE``
(e.g. ``2.0``) to lengthen every run for tighter percentiles.

Parallelism/caching: multi-system fixtures go through
:func:`repro.parallel.run_sweep` (via ``run_systems``), in-process by
default.  ``REPRO_BENCH_WORKERS=N`` fans the systems out over N processes
(results are bit-identical at any worker count), and
``REPRO_BENCH_CACHE=<dir>`` serves unchanged runs from the
content-addressed result cache, making benchmark re-runs near-instant.
"""

from __future__ import annotations

import os

import pytest

from repro.config import SimulationConfig
from repro.core.experiment import run_systems
from repro.core.presets import all_systems
from repro.parallel import ResultCache

_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
_CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE", "")


def bench_run_systems(systems, simcfg):
    """Run a dict of systems through the parallel runner, honoring
    ``REPRO_BENCH_WORKERS``/``REPRO_BENCH_CACHE``."""
    cache = ResultCache(root=_CACHE_DIR) if _CACHE_DIR else None
    return run_systems(systems, simcfg, workers=_WORKERS, cache=cache)

BENCH_SIM = SimulationConfig(
    horizon_ms=500.0 * _SCALE,
    warmup_ms=80.0,
    accesses_per_segment=24,
    seed=2025,
)

#: Shorter config for wide sweeps (throughput converges quickly).
SWEEP_SIM = SimulationConfig(
    horizon_ms=280.0 * _SCALE,
    warmup_ms=60.0,
    accesses_per_segment=20,
    seed=2025,
)


@pytest.fixture(scope="session")
def five_systems():
    """The five evaluated architectures on the identical workload."""
    return bench_run_systems(all_systems(), BENCH_SIM)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def save_table(figure_id: str, columns, rows) -> str:
    """Persist a figure's rows as CSV under ``bench_results/`` so runs
    leave a machine-readable artifact trail. Returns the path."""
    import csv

    out_dir = os.path.join(os.path.dirname(__file__), "..", "bench_results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{figure_id}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name"] + list(columns))
        for name, values in rows.items():
            writer.writerow([name] + list(values))
    return path
