"""Time-series probe engine: periodic gauges on a simulated-time cadence.

A :class:`ProbeEngine` rides the simulator's observation side heap
(:meth:`~repro.sim.engine.Simulator.schedule_probe`): each tick samples a
fixed set of gauges and reschedules itself one interval later. Because
probes fire only when the simulation itself advances the clock, and only
*read* state, a probed run is bit-identical to an unprobed one; a probe
pending after the last simulation event simply never fires, which is what
terminates the self-rescheduling loop.

Sampled gauges (one column each in the CSV export):

* busy cores and loaned cores (harvested to the Harvest VM);
* per-Primary-VM request-queue depth, split into in-hardware entries and
  overflow-subqueue occupancy;
* cumulative L2 hit rate of Primary (non-harvest) and batch (harvest)
  accesses.

Storage is columnar (plain int/float lists) and capped at
``max_probe_samples``; ticks past the cap still fire but drop their
sample and count it in :attr:`ProbeEngine.dropped`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.telemetry.spec import TelemetryConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cluster.server import ServerSimulation


class ProbeEngine:
    """Samples server-wide gauges every ``probe_interval_us`` of sim time."""

    def __init__(self, server: "ServerSimulation", config: TelemetryConfig):
        self.server = server
        self.interval_ns = config.probe_interval_ns
        self.max_samples = config.max_probe_samples
        self.dropped = 0
        self.times_ns: List[int] = []
        self.busy_cores: List[int] = []
        self.loaned_cores: List[int] = []
        self.l2_primary_hit_rate: List[float] = []
        self.l2_batch_hit_rate: List[float] = []
        #: vm_id -> per-tick in-hardware entry count / overflow occupancy.
        self.rq_depth: Dict[int, List[int]] = {
            vm.vm_id: [] for vm in server.primary_vms
        }
        self.rq_overflow: Dict[int, List[int]] = {
            vm.vm_id: [] for vm in server.primary_vms
        }
        #: Column names outlive the server reference, which a closed run
        #: drops.
        self._vm_names = {vm.vm_id: vm.name for vm in server.primary_vms}

    def start(self) -> None:
        """Arm the first tick at t=0 (sampled before the first event)."""
        self.server.sim.schedule_probe(self.server.sim.now, self._tick)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        server = self.server
        now = server.sim.now
        if len(self.times_ns) >= self.max_samples:
            self.dropped += 1
        else:
            self.times_ns.append(now)
            self.busy_cores.append(server._busy)
            self.loaned_cores.append(sum(1 for c in server.cores if c.on_loan))
            self.l2_primary_hit_rate.append(server.l2_primary_hit_rate())
            self.l2_batch_hit_rate.append(server.l2_batch_hit_rate())
            for vm in server.primary_vms:
                hw, overflow = vm.queue.occupancy()
                self.rq_depth[vm.vm_id].append(hw)
                self.rq_overflow[vm.vm_id].append(overflow)
        server.sim.schedule_probe(now + self.interval_ns, self._tick)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.times_ns)

    def columns(self) -> Dict[str, List]:
        """Column name -> series, in a fixed, deterministic order."""
        out: Dict[str, List] = {
            "time_ns": self.times_ns,
            "busy_cores": self.busy_cores,
            "loaned_cores": self.loaned_cores,
            "l2_primary_hit_rate": self.l2_primary_hit_rate,
            "l2_batch_hit_rate": self.l2_batch_hit_rate,
        }
        names = self._vm_names
        for vm_id in sorted(self.rq_depth):
            out[f"rq_depth/{names[vm_id]}"] = self.rq_depth[vm_id]
        for vm_id in sorted(self.rq_overflow):
            out[f"rq_overflow/{names[vm_id]}"] = self.rq_overflow[vm_id]
        return out
