"""Where a server run ends.

A loaded server drains: it runs until every Primary request resolves.
A server with no Primary arrivals has nothing to drain, so it ends at
its horizon, and its rates (batch units per second, busy cores) cover
that horizon.  A loaded run that never drains stops exactly at its
safety cap.  ``tests/data/golden_starved_cluster.json`` pins cluster
runs with starved servers (see ``tests/_starved_cluster_golden.py``).
"""

from dataclasses import replace

import pytest

from repro.cluster.server import ServerSimulation
from repro.config import SimulationConfig
from repro.core.experiment import summarize
from repro.core.presets import hardharvest_block, noharvest
from repro.sim.units import SEC
from tests._starved_cluster_golden import CASES, load_golden, run_case

SIM = SimulationConfig(horizon_ms=20.0, warmup_ms=4.0, accesses_per_segment=4,
                       seed=3)
GOLDEN = load_golden()


def _run(system, sim, cap_ns=None):
    """Build, run and summarize one server; ``cap_ns`` overrides its
    safety cap.  Returns ``(simulation, result)``; the simulation is
    closed."""
    server = ServerSimulation(system, sim)
    if cap_ns is not None:
        server._cap_ns = cap_ns
    try:
        server.run()
        return server, summarize(server)
    finally:
        server.close()


def test_unloaded_server_ends_at_its_horizon():
    server, result = _run(hardharvest_block(), replace(SIM, load_scale=1e-9))
    assert result.counters["requests_arrived"] == 0
    assert server.end_ns == 20 * 10**6
    assert result.simulated_seconds == SIM.horizon_ms / 1e3
    assert result.counters.get("horizon_cap_hit", 0) == 0
    units = sum(h.units_completed for h in server.harvest_vms)
    assert units > 0
    assert result.batch_units_per_s == units / (SIM.horizon_ms / 1e3)


def test_capped_run_ends_exactly_at_its_cap():
    # Half the horizon: arrivals are still pending, so the run cannot
    # have drained by then.
    cap_ns = 10 * 10**6 + 1
    server, result = _run(hardharvest_block(), SIM, cap_ns=cap_ns)
    assert server.end_ns == cap_ns
    assert result.simulated_seconds == cap_ns / SEC
    assert result.counters["horizon_cap_hit"] == 1
    assert server._completions < server._target_completions


def test_run_out_of_events_ends_at_its_last_event():
    # A loaded run that can never finish (one resolution short) and has
    # no batch job: it runs out of events, and ends at the last one, not
    # at the cap it never reached.
    system = replace(noharvest(), batch_active=False)
    drained, _ = _run(system, SIM)
    server = ServerSimulation(system, SIM)
    server._target_completions += 1
    try:
        server.run()
        assert server.end_ns == drained.end_ns < server._cap_ns
        assert server.counters.get("horizon_cap_hit", 0) == 0
    finally:
        server.close()


def test_every_starved_pin_has_a_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_starved_cluster_matches_golden(name):
    digest, starved, loaded, spans_ok = run_case(name)
    assert starved > 0 and loaded > 0
    assert spans_ok
    assert digest == GOLDEN[name]
