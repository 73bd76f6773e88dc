"""SmartHarvest-style software lending agent [88].

A user-space agent wakes every ``monitor_period_ns``, maintains an EWMA
prediction of each Primary VM's busy-core count, and lends cores that have
been idle for at least a full monitoring period — keeping (i) per-VM
headroom for the predicted load and (ii) a server-wide *emergency buffer* of
idle cores that is never lent (Section 2.2: "SmartHarvest keeps a few idle
cores on stand-by in an emergency buffer").

The periodic, predictive structure is exactly why software harvesting leaves
so much on the table for microservices: sub-millisecond idle gaps between
requests come and go entirely within one monitoring period, so the agent
never sees them (Section 3). The hardware agent harvests those gaps.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict

from repro.config import HarvestTrigger, SmartHarvestConfig
from repro.harvest.base import HarvestAgent
from repro.telemetry.tracer import AGENT_TICK

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.core import Core
    from repro.cluster.vm import PrimaryVm


class SmartHarvestAgent(HarvestAgent):
    """Periodic monitor + EWMA predictor + emergency buffer."""

    name = "smartharvest"

    #: Minimum attached (unlent) cores a Primary VM keeps.
    MIN_ATTACHED = 2

    def __init__(self, trigger: HarvestTrigger, config: SmartHarvestConfig):
        if trigger is HarvestTrigger.NEVER:
            raise ValueError("SmartHarvestAgent requires a harvesting trigger")
        super().__init__(trigger)
        self.config = config
        self._ewma: Dict[int, float] = {}
        self.ticks = 0
        self.lends_initiated = 0

    # ------------------------------------------------------------------
    def on_core_idle(self, core: "Core", cause: str) -> bool:
        """Reactive lending, gated by prediction and the emergency buffer.

        Like SmartHarvest, the agent reassigns a core when it goes idle
        (on termination, or additionally on a blocking call in Block mode),
        but only if the prediction says the VM will not need it imminently
        and the server keeps its emergency buffer of idle cores.
        """
        # A user-space agent cannot react to individual idle events — its
        # decisions are rate-limited to its monitoring loop (the tick
        # sweep below). This is the core of the software/hardware gap: the
        # agent makes tens of reassignment decisions per second (the paper
        # measures 11-36 core moves/s), while HardHarvest's QMs react to
        # every idle event in hardware.
        return False

    def _gate(self, vm: "PrimaryVm") -> bool:
        """Prediction + emergency-buffer gate for lending one core of ``vm``."""
        engine = self.engine

        # Per-VM floor: the VM must keep enough *attached* cores (busy or
        # idle) for its predicted demand, and never fewer than
        # ``MIN_ATTACHED`` — the steady trickle of requests has to run
        # somewhere without paying a reclaim. Everything beyond that is
        # lendable: SmartHarvest lends deep.
        idle_unlent = sum(
            1 for c in vm.cores if c.state == "idle" and not c.on_loan
        )
        busy = sum(1 for c in vm.cores if c.state == "busy" and not c.on_loan)
        predicted = self._ewma.get(vm.vm_id, 0.0)
        attached_floor = max(self.MIN_ATTACHED, math.ceil(predicted))
        if busy + idle_unlent - 1 < attached_floor:
            return False

        # Server-wide emergency buffer.
        server_idle = sum(
            1
            for pvm in engine.primary_vms
            for c in pvm.cores
            if c.state == "idle" and not c.on_loan
        )
        return server_idle - 1 >= self.config.emergency_buffer_cores

    def start(self) -> None:
        self.engine.sim.schedule(self.config.monitor_period_ns, self._tick)

    # ------------------------------------------------------------------
    def predicted_busy(self, vm_id: int) -> float:
        return self._ewma.get(vm_id, 0.0)

    def _tick(self) -> None:
        """Periodic monitor: refresh predictions, sweep lendable cores."""
        engine = self.engine
        self.ticks += 1
        now = engine.sim.now
        engine.emit(now, AGENT_TICK, extra=self.lends_initiated)
        alpha = self.config.ewma_alpha
        for vm in engine.primary_vms:
            # Demand right now: running requests plus queued ready ones.
            busy = sum(
                1 for c in vm.cores if c.state == "busy" and not c.on_loan
            )
            demand = busy + min(len(vm.cores), vm.queue.ready_count())
            prev = self._ewma.get(vm.vm_id, float(demand))
            self._ewma[vm.vm_id] = alpha * demand + (1 - alpha) * prev

        # Sweep: lend cores that have sat idle since before this period
        # (their idle event may have been gated by a stale prediction).
        for vm in engine.primary_vms:
            for core in vm.cores:
                if (
                    core.state == "idle"
                    and not core.on_loan
                    and core.guest_vm_id is None
                    and core.idle_cause is not None
                    and self.cause_allowed(core.idle_cause)
                    and now - core.idle_since >= self.config.min_idle_ns
                    and not vm.queue.has_ready(core.core_id)
                    and self._gate(vm)
                ):
                    self.lends_initiated += 1
                    engine.start_lend(core)
        engine.sim.schedule(self.config.monitor_period_ns, self._tick)
