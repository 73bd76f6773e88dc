"""Tests for the sharded cluster-scale layer.

The headline contract under test: a cluster-scale run is **bit-identical
regardless of worker count** — same digest at ``workers=1`` and
``workers=k`` for any seed, routing policy, or shard layout — and the
degenerate configuration (one epoch, nominal load) reproduces the
paper's independent servers, ``run_server`` by ``run_server``, exactly.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.__main__ import main
from repro.cluster_scale import (
    ClusterScaleConfig,
    ClusterScaleResult,
    RoutingPolicy,
    rebalance_harvest,
    route_epoch,
    routing_rng,
    run_cluster_scale,
    service_mix,
)
from repro.config import SimulationConfig
from repro.core.experiment import run_server
from repro.core.export import (
    server_result_to_dict,
    write_cluster_scale_csv,
    write_cluster_scale_json,
)
from repro.core.presets import hardharvest_block, noharvest
from repro.parallel import ResultCache, SweepPoint
from repro.sim.rng import derive_epoch_seed, derive_server_seed
from repro.workloads.batch import BATCH_JOBS
from repro.workloads.suites import get_suite

FAST = SimulationConfig(accesses_per_segment=2)

SMALL = ClusterScaleConfig(
    servers=4, requests=1500, epochs=2, epoch_ms=10.0, warmup_ms=2.0,
    routing=RoutingPolicy.POWER_OF_TWO,
)


def _mix():
    system = hardharvest_block()
    profiles = get_suite(FAST.suite)[: system.cluster.primary_vms_per_server]
    return service_mix(profiles, system.cluster)


# ---------------------------------------------------------------------------
# Sharding determinism: the digest must not depend on worker count.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 23])
@pytest.mark.parametrize(
    "routing", [RoutingPolicy.ROUND_ROBIN, RoutingPolicy.POWER_OF_TWO]
)
def test_workers_bit_identical(seed, routing):
    sim = SimulationConfig(accesses_per_segment=2, seed=seed)
    cfg = ClusterScaleConfig(
        servers=3, requests=1200, epochs=2, epoch_ms=10.0, warmup_ms=2.0,
        routing=routing,
    )
    system = hardharvest_block()
    serial = run_cluster_scale(system, sim, cfg, workers=1)
    sharded = run_cluster_scale(system, sim, cfg, workers=2)
    assert serial.digest() == sharded.digest()
    assert serial.to_dict() == sharded.to_dict()


def test_uneven_shards_bit_identical():
    # 5 servers over 2 workers: chunks of unequal size, merged in server
    # order — the layout the reduction must be insensitive to.
    cfg = ClusterScaleConfig(
        servers=5, requests=2000, epochs=2, epoch_ms=10.0, warmup_ms=2.0,
        routing=RoutingPolicy.LEAST_LOADED,
    )
    system = hardharvest_block()
    d1 = run_cluster_scale(system, FAST, cfg, workers=1).digest()
    d2 = run_cluster_scale(system, FAST, cfg, workers=2).digest()
    d3 = run_cluster_scale(system, FAST, cfg, workers=3).digest()
    assert d1 == d2 == d3


def test_degenerate_matches_legacy_run_cluster(tmp_path):
    # One epoch, nominal load, no rebalancing possible: byte-identical,
    # server by server and cache key by cache key, to what the removed
    # run_cluster ran — run_server(system, sim, BATCH_JOBS[i % 8],
    # server_index=i) for each server i.
    sim = SimulationConfig(
        horizon_ms=12.0, warmup_ms=3.0, accesses_per_segment=2, seed=5,
        servers_to_simulate=3,
    )
    system = noharvest()
    cache = ResultCache(root=str(tmp_path))
    scale = run_cluster_scale(
        system,
        sim,
        ClusterScaleConfig(servers=3, epochs=1, epoch_ms=12.0, warmup_ms=3.0),
        cache=cache,
    )
    assert len(scale.epochs) == 1
    servers = scale.epochs[0].cluster.servers
    assert len(servers) == 3
    for i, ours in enumerate(servers):
        job = BATCH_JOBS[i % len(BATCH_JOBS)]
        theirs = run_server(system, sim, job, server_index=i)
        assert server_result_to_dict(ours) == server_result_to_dict(theirs)
        # A server point is keyed without the cluster's size.
        point = SweepPoint(label=f"server={i}",
                           system=system,
                           sim=replace(sim, servers_to_simulate=1),
                           batch_job=job, server_index=i)
        assert cache.get(cache.key(point.payload())) is not None


def test_a_server_point_is_keyed_without_the_cluster_size(tmp_path):
    # The job spec sets servers_to_simulate to the cluster size; the
    # points must not carry it, so servers 0 and 1 of a 4-server run hit
    # the entries a 2-server run stored.
    from repro.service.spec import parse_job_request

    cache = ResultCache(root=str(tmp_path))
    for servers, hits in ((2, 0), (4, 2)):
        request = parse_job_request({
            "kind": "cluster", "system": "NoHarvest",
            "cluster": {"servers": servers},
            "simulation": {"horizon_ms": 10, "accesses_per_segment": 2},
        })
        assert request.sim.servers_to_simulate == servers
        before = cache.stats.hits
        run_cluster_scale(request.cluster_system(), request.sim,
                          request.cluster, cache=cache)
        assert cache.stats.hits - before == hits, servers


def test_seed_changes_digest():
    system = hardharvest_block()
    a = run_cluster_scale(system, SimulationConfig(accesses_per_segment=2,
                                                   seed=1), SMALL)
    b = run_cluster_scale(system, SimulationConfig(accesses_per_segment=2,
                                                   seed=2), SMALL)
    assert a.digest() != b.digest()


# ---------------------------------------------------------------------------
# RNG derivation.
# ---------------------------------------------------------------------------
def test_epoch_seed_zero_is_identity():
    assert derive_epoch_seed(123, 0) == 123


def test_epoch_seeds_distinct():
    seeds = {derive_epoch_seed(7, e) for e in range(6)}
    assert len(seeds) == 6


def test_epoch_seed_rejects_negative():
    with pytest.raises(ValueError):
        derive_epoch_seed(0, -1)


def test_server_seed_stride():
    assert derive_server_seed(3, 0) == 3
    assert derive_server_seed(3, 2) - derive_server_seed(3, 1) == 7919


# ---------------------------------------------------------------------------
# Routing policies.
# ---------------------------------------------------------------------------
def test_round_robin_counts_even():
    routing = route_epoch(
        RoutingPolicy.ROUND_ROBIN, routing_rng(0, 0), 4, 1002, _mix(),
        np.zeros(4),
    )
    assert int(routing.counts.sum()) == 1002
    assert routing.counts.max() - routing.counts.min() <= 1


def test_routing_is_deterministic():
    for policy in RoutingPolicy:
        a = route_epoch(policy, routing_rng(9, 1), 5, 500, _mix(), np.zeros(5))
        b = route_epoch(policy, routing_rng(9, 1), 5, 500, _mix(), np.zeros(5))
        assert a.to_dict() == b.to_dict()


def test_least_loaded_balances_cost():
    mix = _mix()
    rng = routing_rng(0, 0)
    ll = route_epoch(RoutingPolicy.LEAST_LOADED, rng, 6, 3000, mix,
                     np.zeros(6))
    assert int(ll.counts.sum()) == 3000
    # The omniscient policy balances estimated work almost perfectly.
    assert ll.imbalance < 1.01


def test_p2c_beats_nothing_and_sums():
    routing = route_epoch(
        RoutingPolicy.POWER_OF_TWO, routing_rng(0, 0), 6, 3000, _mix(),
        np.zeros(6),
    )
    assert int(routing.counts.sum()) == 3000
    assert routing.counts.min() > 0
    # Two choices keep imbalance far below worst-case random assignment.
    assert routing.imbalance < 1.2


def test_carryover_steers_load_away():
    mix = _mix()
    hot = np.zeros(4)
    hot[0] = 1e9  # server 0 ended the last epoch extremely hot
    routing = route_epoch(
        RoutingPolicy.LEAST_LOADED, routing_rng(0, 1), 4, 2000, mix, hot
    )
    assert routing.counts[0] == 0
    assert int(routing.counts.sum()) == 2000


def test_route_epoch_rejects_negative():
    with pytest.raises(ValueError):
        route_epoch(RoutingPolicy.ROUND_ROBIN, routing_rng(0, 0), 2, -1,
                    _mix(), np.zeros(2))


# ---------------------------------------------------------------------------
# Harvest rebalancing.
# ---------------------------------------------------------------------------
def test_rebalance_moves_hot_to_cold():
    decision = rebalance_harvest(
        alloc=[4, 4, 4, 4], utilization=[0.95, 0.2, 0.5, 0.5],
        cores_per_server=36, min_cores=1, max_cores=6,
        threshold=0.05, max_moves=8,
    )
    assert decision.moves
    assert all(src == 0 and dst == 1 for src, dst in decision.moves[:1])
    assert sum(decision.alloc) == 16  # conserved


def test_rebalance_respects_bounds():
    decision = rebalance_harvest(
        alloc=[2, 2], utilization=[1.0, 0.0],
        cores_per_server=36, min_cores=1, max_cores=2,
        threshold=0.01, max_moves=100,
    )
    # Receiver is already at max_cores: nothing can move.
    assert decision.moves == []
    assert decision.alloc == [2, 2]


def test_rebalance_below_threshold_is_noop():
    decision = rebalance_harvest(
        alloc=[3, 3], utilization=[0.52, 0.50],
        cores_per_server=36, min_cores=1, max_cores=6,
        threshold=0.05, max_moves=8,
    )
    assert decision.moves == []


def test_rebalance_caps_moves():
    decision = rebalance_harvest(
        alloc=[6, 1], utilization=[1.0, 0.0],
        cores_per_server=36, min_cores=1, max_cores=6,
        threshold=0.01, max_moves=2,
    )
    assert len(decision.moves) == 2
    assert decision.alloc == [4, 3]


def test_rebalance_ties_break_low_index():
    decision = rebalance_harvest(
        alloc=[3, 3, 3], utilization=[0.9, 0.1, 0.1],
        cores_per_server=36, min_cores=1, max_cores=6,
        threshold=0.05, max_moves=1,
    )
    assert decision.moves == [(0, 1)]


def test_rebalance_length_mismatch():
    with pytest.raises(ValueError):
        rebalance_harvest([3, 3], [0.5], 36, 1, 6, 0.05, 8)


# ---------------------------------------------------------------------------
# Config validation.
# ---------------------------------------------------------------------------
def test_config_epoch_request_split():
    cfg = ClusterScaleConfig(servers=2, requests=10, epochs=3)
    assert [cfg.epoch_requests(e) for e in range(3)] == [4, 3, 3]
    assert ClusterScaleConfig(servers=2).epoch_requests(0) is None


@pytest.mark.parametrize("kwargs", [
    {"servers": 0},
    {"epochs": 0},
    {"requests": 0},
    {"epoch_ms": 0.0},
    {"warmup_ms": 100.0},  # >= epoch_ms
    {"rebalance_max_moves": -1},
    {"harvest_min_cores": 0},
    {"harvest_min_cores": 5, "harvest_max_cores": 4},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ClusterScaleConfig(**kwargs)


def test_runner_validates_core_budget():
    with pytest.raises(ValueError):
        run_cluster_scale(
            hardharvest_block(), FAST,
            ClusterScaleConfig(servers=1, harvest_max_cores=100),
        )


# ---------------------------------------------------------------------------
# Serialization, export, digest stability.
# ---------------------------------------------------------------------------
def test_result_roundtrip_preserves_digest(tmp_path):
    system = hardharvest_block()
    result = run_cluster_scale(system, FAST, SMALL, workers=1)
    clone = ClusterScaleResult.from_dict(result.to_dict())
    assert clone.digest() == result.digest()
    assert clone.summary_dict() == result.summary_dict()

    json_path = tmp_path / "cluster.json"
    write_cluster_scale_json(str(json_path), result)
    on_disk = ClusterScaleResult.from_dict(json.loads(json_path.read_text()))
    assert on_disk.digest() == result.digest()

    csv_path = tmp_path / "cluster.csv"
    write_cluster_scale_csv(str(csv_path), result)
    lines = csv_path.read_text().strip().splitlines()
    # header + one row per (epoch, server)
    assert len(lines) == 1 + SMALL.epochs * SMALL.servers


def test_rebalance_alloc_applies_next_epoch():
    # With a tight core budget the first barrier moves capacity; epoch 1
    # must then run with the post-move allocation.
    from dataclasses import replace

    base = hardharvest_block()
    # Start below the rebalancer's ceiling so receivers exist.
    system = replace(
        base, cluster=replace(base.cluster, harvest_vm_base_cores=2)
    )
    cfg = ClusterScaleConfig(
        servers=3, requests=2400, epochs=2, epoch_ms=10.0, warmup_ms=2.0,
        routing=RoutingPolicy.LEAST_LOADED, rebalance_threshold=0.0,
        harvest_min_cores=1, harvest_max_cores=4,
    )
    result = run_cluster_scale(system, FAST, cfg, workers=1)
    first = result.epochs[0]
    if first.rebalance and first.rebalance["moves"]:
        assert result.epochs[1].harvest_alloc == first.rebalance["alloc"]
    assert sum(result.epochs[1].harvest_alloc) == sum(first.harvest_alloc)


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------
def test_cli_cluster_scale_stats_json(capsys, tmp_path):
    stats_path = tmp_path / "stats.json"
    rc = main([
        "cluster", "--servers", "2", "--requests", "600", "--epochs", "2",
        "--routing", "round-robin", "--horizon-ms", "25",
        "--accesses", "2", "--seed", "3", "--no-cache",
        "--stats-json", str(stats_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "digest" in out
    stats = json.loads(stats_path.read_text())
    assert stats["servers"] == 2
    assert stats["epochs"] == 2
    assert stats["routing"] == "round-robin"
    assert len(stats["digest"]) == 64
    assert stats["requests_routed"] == 600


def test_cli_cluster_without_scale_flags_runs_one_epoch(capsys, tmp_path):
    # No scale flags: still run_cluster_scale (one nominal epoch), through
    # the result cache like any other cluster run.
    stats_path = tmp_path / "stats.json"
    argv = ["cluster", "--system", "NoHarvest", "--servers", "2",
            "--horizon-ms", "20", "--accesses", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--stats-json", str(stats_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "NoHarvest across 2 server(s), 1 epoch(s)" in out
    stats = json.loads(stats_path.read_text())
    direct = run_cluster_scale(
        noharvest(),
        SimulationConfig(horizon_ms=20.0, warmup_ms=4.0,
                         accesses_per_segment=2, servers_to_simulate=2),
        ClusterScaleConfig(servers=2, epochs=1, epoch_ms=20.0, warmup_ms=4.0),
    )
    assert stats["digest"] == direct.digest()
    assert stats["cache"]["misses"] == 2

    assert main(argv) == 0
    capsys.readouterr()
    assert json.loads(stats_path.read_text())["cache"]["hit_rate"] == 1.0
