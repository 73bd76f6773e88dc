"""Tests for multi-seed replication and confidence intervals."""

import pytest

from repro.config import SimulationConfig
from repro.core.presets import hardharvest_block, noharvest
from repro.core.replicate import (
    MetricSummary,
    compare_metric,
    replicate,
    summarize_samples,
)

FAST = SimulationConfig(horizon_ms=50, warmup_ms=10, accesses_per_segment=6)


class TestSummaries:
    def test_basic_stats(self):
        s = summarize_samples([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.std == pytest.approx(1.0)
        assert s.ci_low < 2.0 < s.ci_high
        assert s.n == 3

    def test_single_sample_degenerate(self):
        s = summarize_samples([5.0])
        assert s.mean == s.ci_low == s.ci_high == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_samples([])

    def test_ci_narrows_with_more_samples(self):
        wide = summarize_samples([1, 2, 3])
        narrow = summarize_samples([1, 2, 3] * 5)
        assert (narrow.ci_high - narrow.ci_low) < (wide.ci_high - wide.ci_low)


class TestReplicate:
    def test_distinct_seeds_distinct_results(self):
        runs = replicate(noharvest(), FAST, seeds=[1, 2, 3])
        p99s = [r.avg_p99_ms() for r in runs]
        assert len(set(p99s)) == 3

    def test_same_seed_reproduces(self):
        a = replicate(noharvest(), FAST, seeds=[7])[0]
        b = replicate(noharvest(), FAST, seeds=[7])[0]
        assert a.p99_ms == b.p99_ms

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(noharvest(), FAST, seeds=[])

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            replicate(noharvest(), FAST, seeds=[1, 1])


class TestCompare:
    def test_paired_ratio_summary(self):
        out = compare_metric(
            {"NoHarvest": noharvest(), "HardHarvest-Block": hardharvest_block()},
            FAST,
            seeds=[1, 2, 3],
            metric=lambda r: r.avg_busy_cores,
            baseline="NoHarvest",
        )
        base_ratio = out["NoHarvest"]["ratio_vs_baseline"]
        assert base_ratio.mean == pytest.approx(1.0)
        hh_ratio = out["HardHarvest-Block"]["ratio_vs_baseline"]
        # Utilization gain is large and consistent: CI well above 1.
        assert hh_ratio.ci_low > 2.0
        assert isinstance(out["HardHarvest-Block"]["absolute"], MetricSummary)
