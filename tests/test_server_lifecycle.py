"""A server run's lifecycle: build, run, summarize, close.

Cores, VMs, the harvesting agent and every pending event refer back to
their :class:`ServerSimulation`, so a finished point is cyclic garbage
unless it is closed. These tests hold that a closed point is freed by
reference counting alone, that closing changes no result, and that
``src/`` never leans on the cyclic collector to get there.
"""

import ast
import gc
import os
from dataclasses import replace

import pytest

from repro.cluster.server import ServerSimulation
from repro.config import SimulationConfig, TelemetryConfig
from repro.core.experiment import run_server, summarize
from repro.core.export import server_result_to_dict
from repro.core.presets import harvest_block, hardharvest_block
from repro.faults.scenarios import get_scenario
from repro.harvest.hardware import HardwareAgent
from repro.harvest.software import SmartHarvestAgent
from repro.parallel.cache import canonical_json
from repro.sim.engine import Simulator

FAST = SimulationConfig(horizon_ms=12.0, warmup_ms=3.0, accesses_per_segment=6, seed=5)
_STORM = get_scenario("crash-storm", FAST.horizon_ms)

#: One point per kind of back-reference a run builds.
CONFIGS = {
    # Hardware agent, HardHarvest controller and QM subqueues.
    "hardharvest-block": (hardharvest_block, FAST),
    # SmartHarvest agent (self-rescheduling monitor) and software queues.
    "software-harvest": (harvest_block, FAST),
    # FaultInjector windows plus ClientRuntime deadline and hedge timers.
    "faults-client": (
        hardharvest_block,
        replace(FAST, faults=_STORM.schedule, client=_STORM.client),
    ),
    # ProbeEngine on the probe side heap, and the tracer.
    "telemetry": (hardharvest_block, replace(FAST, telemetry=TelemetryConfig(enabled=True))),
}

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _config(name):
    system, cfg = CONFIGS[name]
    return system(), cfg


def _point(name):
    return ServerSimulation(*_config(name))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_closed_point_leaves_no_cyclic_garbage(name):
    # Warm-up: a first run imports lazily (numpy's percentile pulls in
    # modules whose import leaves cyclic garbage of its own).
    run_server(*_config(name))
    gc.collect()
    gc.disable()
    try:
        sim = _point(name)
        sim.run()
        summarize(sim)
        sim.close()
        del sim
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_each_config_builds_the_components_it_covers():
    hw, sw, faulted, traced = (
        _point(n)
        for n in ("hardharvest-block", "software-harvest", "faults-client", "telemetry")
    )
    assert isinstance(hw.agent, HardwareAgent) and hw.controller is not None
    assert isinstance(sw.agent, SmartHarvestAgent) and sw.controller is None
    assert faulted.injector is not None and faulted.client is not None
    assert traced.probes is not None and traced.tracer is not None


def test_run_server_frees_its_point():
    run_server(hardharvest_block(), FAST)
    gc.collect()
    gc.disable()
    try:
        run_server(hardharvest_block(), FAST)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_close_changes_no_result_and_is_idempotent(name):
    sim = _point(name)
    sim.run()
    before = canonical_json(server_result_to_dict(summarize(sim)))
    sim.close()
    sim.close()
    assert canonical_json(server_result_to_dict(summarize(sim))) == before
    if sim.probes is not None:
        assert sim.probes.columns()["time_ns"] == sim.probes.times_ns
        assert len(sim.tracer.events()) > 0
    with pytest.raises(RuntimeError, match="closed"):
        sim.run()


def test_simulator_close_drops_pending_events_and_probes():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10, fired.append, "late")
    sim.schedule_probe(5, lambda: fired.append("probe"))
    sim.close()
    assert sim.pending_events == 0 and sim.pending_probes == 0
    assert handle._fn is None and handle._args == ()
    handle.cancel()  # after close: no accounting against the closed heap
    assert sim.pending_live_events == 0
    assert sim.run() == 0 and fired == []
    sim.close()


def test_no_gc_call_in_src():
    """Points are freed by reference counting; nothing in ``src/`` may
    import the collector or call it to make that true."""
    offenders = []
    for root, _dirs, files in os.walk(SRC):
        for fname in files:
            if not fname.endswith(".py"):
                continue
            path = os.path.join(root, fname)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    bad = any(a.name == "gc" for a in node.names)
                elif isinstance(node, ast.ImportFrom):
                    bad = node.module == "gc"
                elif isinstance(node, ast.Attribute):
                    bad = isinstance(node.value, ast.Name) and node.value.id == "gc"
                else:
                    bad = False
                if bad:
                    offenders.append(f"{os.path.relpath(path, SRC)}:{node.lineno}")
    assert offenders == []
