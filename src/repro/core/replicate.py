"""Multi-seed replication: run an experiment across seeds and report
mean / spread / confidence intervals for any metric.

Single-seed P99s carry sampling noise; a credible comparison states its
spread. :func:`replicate` runs one system across N seeds through
:func:`repro.parallel.runner.run_sweep` (in a process pool when
``workers > 1`` — runs are independent); :func:`compare_metric` replicates
several systems on *paired* seeds and summarizes a metric with a paired
confidence interval on the ratio vs a baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import SimulationConfig, SystemConfig
from repro.core.metrics import ServerResult

#: t-distribution 97.5% quantiles for small samples (df = 1..30).
_T975 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def _t975(df: int) -> float:
    if df < 1:
        raise ValueError("need at least 2 samples for a CI")
    return _T975[min(df, len(_T975)) - 1]


@dataclass(frozen=True)
class MetricSummary:
    """Mean, spread, and a 95% CI for one metric across seeds."""

    mean: float
    std: float
    ci_low: float
    ci_high: float
    samples: tuple

    @property
    def n(self) -> int:
        return len(self.samples)


def summarize_samples(values: Sequence[float]) -> MetricSummary:
    values = list(values)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    mean = sum(values) / n
    if n == 1:
        return MetricSummary(mean, 0.0, mean, mean, tuple(values))
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(var)
    half = _t975(n - 1) * std / math.sqrt(n)
    return MetricSummary(mean, std, mean - half, mean + half, tuple(values))


def replicate(
    system: SystemConfig,
    simcfg: SimulationConfig,
    seeds: Sequence[int],
    workers: int = 1,
    cache=None,
) -> List[ServerResult]:
    """Run one system once per seed, in seed order.

    ``workers=N`` fans the seeds out over a process pool and ``cache=``
    serves repeats from the content-addressed result cache; results are
    bit-identical either way.  Empty or duplicate seeds raise
    :class:`ValueError`.
    """
    from repro.parallel import SweepSpec, run_sweep

    spec = SweepSpec(
        systems={system.name: system}, seeds=tuple(seeds), sim=simcfg
    )
    outcome = run_sweep(spec, workers=workers, cache=cache)
    return list(outcome.results.values())


def compare_metric(
    systems: Dict[str, SystemConfig],
    simcfg: SimulationConfig,
    seeds: Sequence[int],
    metric: Callable[[ServerResult], float],
    baseline: Optional[str] = None,
) -> Dict[str, Dict[str, MetricSummary]]:
    """Replicate several systems on paired seeds.

    Returns, per system, the absolute metric summary and (when ``baseline``
    is given) the summary of the per-seed *ratios* vs the baseline — the
    paired comparison that cancels workload noise.
    """
    results = {
        name: replicate(system, simcfg, seeds)
        for name, system in systems.items()
    }
    out: Dict[str, Dict[str, MetricSummary]] = {}
    base_vals = (
        [metric(r) for r in results[baseline]] if baseline is not None else None
    )
    for name, runs in results.items():
        vals = [metric(r) for r in runs]
        entry = {"absolute": summarize_samples(vals)}
        if base_vals is not None:
            entry["ratio_vs_baseline"] = summarize_samples(
                [v / b for v, b in zip(vals, base_vals)]
            )
        out[name] = entry
    return out
