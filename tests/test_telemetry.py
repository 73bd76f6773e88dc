"""Tests for the telemetry subsystem: tracer, probes, exporters, and the
zero-perturbation / bounded-memory / deterministic-output contract."""

import json
from dataclasses import replace

import pytest

import repro.cluster.server
from repro.analysis.critical_path import critical_path_report, segment_requests
from repro.config import SimulationConfig, TelemetryConfig
from repro.core.experiment import run_server, run_server_raw
from repro.core.export import server_result_to_dict
from repro.core.presets import hardharvest_block, harvest_block
from repro.core.serialize import from_dict, to_dict
from repro.parallel.sweep import SweepPoint
from repro.sim.engine import Simulator
from repro.telemetry.export import write_perfetto_json, write_timeseries_csv
from repro.telemetry.tracer import (
    AGENT_TICK,
    DEPTH_KINDS,
    PHASES,
    REQ_ARRIVAL,
    REQ_COMPLETE,
    REQ_DISPATCH,
    REQ_ENQUEUE,
    REQ_EXEC,
    SERVER_CRASH,
    SERVER_RESTART,
    Tracer,
)

FAST = SimulationConfig(horizon_ms=40.0, warmup_ms=8.0, accesses_per_segment=6)
TRACED = replace(FAST, telemetry=TelemetryConfig(enabled=True))


@pytest.fixture(scope="module")
def traced_sim():
    """One fully traced HardHarvest-Block run shared by the read-only tests."""
    return run_server_raw(hardharvest_block(), TRACED)


@pytest.fixture(scope="module")
def vm_names(traced_sim):
    names = {vm.vm_id: vm.name for vm in traced_sim.primary_vms}
    for hvm in traced_sim.harvest_vms:
        names[hvm.vm_id] = hvm.name
    return names


# ----------------------------------------------------------------------
# Engine probe side heap
# ----------------------------------------------------------------------
class TestEngineProbes:
    def test_probe_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_probe(5, lambda: None)

    def test_probes_do_not_count_as_events(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule_probe(5, lambda: None)
        assert sim.pending_events == 1
        assert sim.pending_probes == 1

    def test_probe_fires_before_later_event(self):
        sim = Simulator()
        order = []
        sim.schedule(10, lambda: order.append("event"))
        sim.schedule_probe(5, lambda: order.append(f"probe@{sim.now}"))
        sim.run()
        assert order == ["probe@5", "event"]

    def test_self_rescheduling_probe_stops_at_last_event(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule_probe(sim.now + 10, tick)

        sim.schedule_probe(0, tick)
        sim.schedule(35, lambda: None)
        fired = sim.run()
        # Probes at 0/10/20/30 fire; the one pending at 40 never does,
        # and none of them count toward the fired-event total.
        assert ticks == [0, 10, 20, 30]
        assert fired == 1
        assert sim.pending_probes == 1


# ----------------------------------------------------------------------
# Ring buffer
# ----------------------------------------------------------------------
class TestTracer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(0)

    def test_ring_eviction_counts_drops(self):
        tr = Tracer(3)
        for ts in range(5):
            tr.emit(ts, REQ_ARRIVAL, req=ts)
        assert len(tr) == 3
        assert tr.dropped == 2
        # Oldest two evicted; survivors in chronological order.
        assert [e[0] for e in tr.events()] == [2, 3, 4]

    def test_no_drops_under_capacity(self):
        tr = Tracer(8)
        tr.emit(1, REQ_ARRIVAL, req=0)
        tr.emit(2, REQ_ENQUEUE, req=0, extra=1)
        assert tr.dropped == 0
        assert tr.events() == [(1, REQ_ARRIVAL, 0, -1, -1, 0),
                               (2, REQ_ENQUEUE, 0, -1, -1, 1)]


class TestTelemetryConfig:
    @pytest.mark.parametrize("bad", [
        {"max_events": 0},
        {"probe_interval_us": 0.0},
        {"max_probe_samples": -1},
    ])
    def test_rejects_non_positive_knobs(self, bad):
        with pytest.raises(ValueError):
            TelemetryConfig(**bad)

    def test_interval_ns(self):
        assert TelemetryConfig(probe_interval_us=50.0).probe_interval_ns == 50_000
        assert TelemetryConfig(probe_interval_us=0.0001).probe_interval_ns == 1


# ----------------------------------------------------------------------
# Zero perturbation: results bit-identical with telemetry on/off
# ----------------------------------------------------------------------
class TestZeroPerturbation:
    @pytest.mark.parametrize("preset", [hardharvest_block, harvest_block])
    def test_results_bit_identical_on_vs_off(self, preset):
        off = run_server(preset(), FAST)
        on = run_server(preset(), replace(FAST, telemetry=TelemetryConfig(enabled=True)))
        assert server_result_to_dict(on) == server_result_to_dict(off)

    def test_tiny_ring_does_not_perturb_results(self):
        off = run_server(hardharvest_block(), FAST)
        sim = run_server_raw(
            hardharvest_block(),
            replace(FAST, telemetry=TelemetryConfig(enabled=True, max_events=256)),
        )
        assert sim.tracer.dropped > 0
        assert len(sim.tracer) == 256
        from repro.core.experiment import summarize

        assert server_result_to_dict(summarize(sim)) == server_result_to_dict(off)

    def test_disabled_config_allocates_nothing(self):
        """Both spellings of "off" build no tracer and no probes, and
        every hook calls the one empty function."""
        for telemetry in (None, TelemetryConfig(enabled=False)):
            sim = run_server_raw(
                hardharvest_block(), replace(FAST, telemetry=telemetry)
            )
            assert sim.tracer is None, telemetry
            assert sim.probes is None, telemetry
            assert sim.emit is repro.cluster.server._no_emit, telemetry
            sim.close()


# ----------------------------------------------------------------------
# run_server_raw exposure (the docstring's promise)
# ----------------------------------------------------------------------
class TestRawExposure:
    def test_tracer_and_probes_exposed(self, traced_sim):
        assert traced_sim.tracer is not None
        assert traced_sim.probes is not None
        assert len(traced_sim.tracer) > 0
        assert traced_sim.tracer.dropped == 0
        assert len(traced_sim.probes) > 0


# ----------------------------------------------------------------------
# Span chains + exact critical-path tiling
# ----------------------------------------------------------------------
class TestCriticalPath:
    def test_phases_tile_latency_exactly(self, traced_sim):
        events = traced_sim.tracer.events()
        paths = segment_requests(events)
        completions = sum(1 for e in events if e[1] == REQ_COMPLETE)
        assert completions > 100
        assert len(paths) == completions
        for p in paths:
            assert sum(p.phases.values()) == p.total_ns  # exact, not approx
            assert p.phases["execution"] > 0

    def test_report_mentions_every_service(self, traced_sim, vm_names):
        primary = {vm.vm_id: vm.name for vm in traced_sim.primary_vms}
        report = critical_path_report(traced_sim.tracer.events(), primary)
        for name in primary.values():
            assert name in report
        for phase in PHASES:
            assert phase in report
        assert "all" in report

    def test_empty_stream_reports_zero_row(self):
        report = critical_path_report([], {})
        assert "all" in report


# ----------------------------------------------------------------------
# Probe series
# ----------------------------------------------------------------------
class TestProbes:
    def test_series_shape_and_bounds(self, traced_sim):
        probes = traced_sim.probes
        cols = probes.columns()
        n = len(probes)
        assert n > 100
        assert probes.dropped == 0
        assert all(len(series) == n for series in cols.values())
        interval = TRACED.telemetry.probe_interval_ns
        assert cols["time_ns"][0] == 0
        assert all(
            b - a == interval
            for a, b in zip(cols["time_ns"], cols["time_ns"][1:])
        )
        num_cores = len(traced_sim.cores)
        assert all(0 <= busy <= num_cores for busy in cols["busy_cores"])
        assert any(loaned > 0 for loaned in cols["loaned_cores"])
        assert all(0.0 <= r <= 1.0 for r in cols["l2_primary_hit_rate"])
        for vm in traced_sim.primary_vms:
            assert f"rq_depth/{vm.name}" in cols
            assert f"rq_overflow/{vm.name}" in cols

    def test_sample_cap_counts_drops(self):
        sim = run_server_raw(
            hardharvest_block(),
            replace(FAST, telemetry=TelemetryConfig(enabled=True,
                                                    max_probe_samples=10)),
        )
        assert len(sim.probes) == 10
        assert sim.probes.dropped > 0


# ----------------------------------------------------------------------
# Exporters: structure + byte-identical determinism
# ----------------------------------------------------------------------
class TestExport:
    def test_perfetto_contains_every_completed_request(
        self, traced_sim, vm_names, tmp_path
    ):
        events = traced_sim.tracer.events()
        path = tmp_path / "trace.json"
        n_te = write_perfetto_json(
            str(path), events, vm_names, len(traced_sim.cores)
        )
        trace = json.loads(path.read_text())
        te = trace["traceEvents"]
        assert n_te == len(te)

        completed = {e[2] for e in events if e[1] == REQ_COMPLETE}
        begun = {ev["id"] for ev in te if ev["ph"] == "b"}
        ended = {ev["id"] for ev in te if ev["ph"] == "e"}
        assert completed <= begun
        assert completed <= ended

        # Core slices exist for dispatch/exec activity, queue counters for
        # every depth-bearing kind, and the three process tracks are named.
        assert any(ev["ph"] == "X" and ev["pid"] == 1 for ev in te)
        assert any(ev["ph"] == "C" and ev["pid"] == 2 for ev in te)
        names = {
            ev["args"]["name"]
            for ev in te
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert names == {"cores", "queues", "requests"}

    def test_exports_byte_identical_across_runs(self, tmp_path):
        blobs = []
        for run in range(2):
            sim = run_server_raw(hardharvest_block(), TRACED)
            names = {vm.vm_id: vm.name for vm in sim.primary_vms}
            for hvm in sim.harvest_vms:
                names[hvm.vm_id] = hvm.name
            tp = tmp_path / f"trace{run}.json"
            cp = tmp_path / f"series{run}.csv"
            write_perfetto_json(str(tp), sim.tracer.events(), names,
                                len(sim.cores))
            write_timeseries_csv(str(cp), sim.probes)
            blobs.append((tp.read_bytes(), cp.read_bytes()))
        assert blobs[0] == blobs[1]

    @staticmethod
    def _server_track(system, simcfg, path):
        """(tracer events, exported events on the server track) of a run."""
        sim = run_server_raw(system, simcfg)
        try:
            names = {vm.vm_id: vm.name for vm in sim.primary_vms}
            for hvm in sim.harvest_vms:
                names[hvm.vm_id] = hvm.name
            events = sim.tracer.events()
            write_perfetto_json(str(path), events, names, len(sim.cores))
        finally:
            sim.close()
        te = json.loads(path.read_text())["traceEvents"]
        assert {"ph": "M", "pid": 4, "name": "process_name",
                "args": {"name": "server"}} in te
        return events, [ev for ev in te if ev["pid"] == 4 and ev["ph"] != "M"]

    def test_perfetto_server_track_has_every_agent_tick(self, tmp_path):
        events, track = self._server_track(
            harvest_block(), TRACED, tmp_path / "trace.json"
        )
        ticks = [(ts / 1000.0, extra) for ts, kind, *_, extra in events
                 if kind == AGENT_TICK]
        assert len(ticks) >= 2
        assert [(ev["ph"], ev["name"]) for ev in track] == [
            ("i", "agent tick")
        ] * len(ticks)
        assert [(ev["ts"], ev["args"]["lends"]) for ev in track] == ticks

    def test_perfetto_server_track_spans_each_crash_to_its_restart(
        self, tmp_path
    ):
        from repro.faults.scenarios import get_scenario

        storm = replace(
            TRACED, faults=get_scenario("crash-storm", TRACED.horizon_ms).schedule
        )
        events, track = self._server_track(
            hardharvest_block(), storm, tmp_path / "trace.json"
        )
        crashes = [e[0] for e in events if e[1] == SERVER_CRASH]
        restarts = [e[0] for e in events if e[1] == SERVER_RESTART]
        assert crashes and len(crashes) == len(restarts)
        assert all(ev["ph"] == "X" and ev["name"] == "crash" for ev in track)
        assert [(ev["ts"], ev["ts"] + ev["dur"]) for ev in track] == [
            (c / 1000.0, r / 1000.0) for c, r in zip(crashes, restarts)
        ]

    def test_timeseries_csv_shape(self, traced_sim, tmp_path):
        path = tmp_path / "series.csv"
        rows = write_timeseries_csv(str(path), traced_sim.probes)
        lines = path.read_text().splitlines()
        assert rows == len(traced_sim.probes)
        assert len(lines) == rows + 1  # header
        header = lines[0].split(",")
        assert header[:3] == ["time_ns", "busy_cores", "loaned_cores"]

    def test_depth_kinds_cover_queue_counters(self, traced_sim):
        kinds = {e[1] for e in traced_sim.tracer.events()}
        assert REQ_ENQUEUE in kinds
        assert DEPTH_KINDS & kinds
        assert {REQ_ARRIVAL, REQ_DISPATCH, REQ_EXEC, REQ_COMPLETE} <= kinds


# ----------------------------------------------------------------------
# Config plumbing: serializer round trip + cache-key participation
# ----------------------------------------------------------------------
class TestConfigPlumbing:
    def test_serialize_round_trip(self):
        cfg = replace(
            FAST,
            telemetry=TelemetryConfig(enabled=True, max_events=1234,
                                      probe_interval_us=7.5,
                                      max_probe_samples=99),
        )
        assert from_dict(to_dict(cfg)) == cfg

    def test_telemetry_changes_cache_key_payload(self):
        system = hardharvest_block()
        plain = SweepPoint(label="a", system=system, sim=FAST)
        traced = SweepPoint(label="a", system=system, sim=TRACED)
        assert plain.payload() != traced.payload()
