"""Tests for the paper's multi-server cluster: one epoch at nominal load,
sequential and parallel."""


from repro.cluster_scale import ClusterScaleConfig, run_cluster_scale
from repro.config import SimulationConfig
from repro.core.presets import hardharvest_block, noharvest

FAST = SimulationConfig(
    horizon_ms=60, warmup_ms=10, accesses_per_segment=8, seed=17,
)
THREE = ClusterScaleConfig(servers=3, epochs=1, epoch_ms=60, warmup_ms=10)


def run_cluster(system, workers=1):
    """The cluster's one epoch (a :class:`ClusterResult`)."""
    result = run_cluster_scale(system, FAST, THREE, workers=workers)
    assert len(result.epochs) == 1
    return result.epochs[0].cluster


def test_cluster_one_job_per_server():
    result = run_cluster(noharvest())
    assert len(result.servers) == 3
    jobs = [s.batch_job for s in result.servers]
    assert jobs == ["BFS", "CC", "DC"]
    assert result.avg_p99_ms() > 0
    assert result.avg_busy_cores() > 0


def test_cluster_servers_differ_by_seed():
    result = run_cluster(noharvest())
    p99s = [s.avg_p99_ms() for s in result.servers]
    assert len(set(p99s)) == 3  # per-server RNG streams differ


def test_parallel_matches_sequential():
    seq = run_cluster(hardharvest_block(), workers=1)
    par = run_cluster(hardharvest_block(), workers=2)
    for a, b in zip(seq.servers, par.servers):
        assert a.p99_ms == b.p99_ms
        assert a.avg_busy_cores == b.avg_busy_cores
        assert a.counters == b.counters


def test_throughput_by_job_mapping():
    result = run_cluster(noharvest())
    thr = result.throughput_by_job()
    assert set(thr) == {"BFS", "CC", "DC"}
    assert all(v > 0 for v in thr.values())
