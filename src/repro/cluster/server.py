"""The per-server discrete-event engine tying everything together.

One :class:`ServerSimulation` models one server of the paper's cluster:
36 cores, 8 Primary VMs (one DeathStarBench-like service each, 4 cores
each) and 1 Harvest VM (4 base cores plus whatever it harvests), under one
of the evaluated architectures (NoHarvest, Harvest-Term/Block,
HardHarvest-Term/Block, or any ablation point between them).

Event flow
----------

* **Arrival** — the NIC deposits the payload via DDIO and the request lands
  in the VM's queue (QM subqueue or software queue). If an idle bound core
  exists it dispatches; otherwise, if a bound core is on loan, the engine
  starts a *reclaim* (demand-driven in every system, with system-specific
  costs).
* **Dispatch** — queue access + work discovery + request context switch
  (costs from :class:`~repro.harvest.costs.CostModel`); then the request's
  next compute segment runs. Segment duration = drawn CPU time plus modeled
  memory time: sampled accesses walk the core's real cache/TLB model and the
  measured average latency is scaled by the service's reference density.
* **Blocking I/O** — the request parks in the queue (entry stays, marked
  BLOCKED), the core is released with cause ``block``; the response later
  marks it ready, which may trigger dispatch or reclaim.
* **Lend** — when a core idles and the harvesting agent approves, the core
  transitions to the Harvest VM (flush semantics per system) and chews
  batch units until preempted.
* **Reclaim** — a loaned core is interrupted: its batch unit's remaining
  work is preserved (hardware context switching) or lost (software); the
  transition cost and any critical-path flush are charged before the core
  returns to its Primary VM.

Utilization counts cores executing useful work (Primary segments or batch
units); switching/flush time is overhead and deliberately not counted.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import HarvestTrigger, SimulationConfig, SystemConfig
from repro.cluster.core import BUSY, IDLE, STALLED, SWITCHING, Core
from repro.cluster.backend import BackendTier
from repro.cluster.nic import Nic
from repro.cluster.request import Request
from repro.cluster.vm import HarvestVm, PrimaryVm, SoftwareQueue
from repro.faults.client import ClientRuntime
from repro.faults.injector import FaultInjector
from repro.harvest.base import HarvestAgent, NoHarvestAgent
from repro.harvest.costs import CostModel
from repro.harvest.hardware import HardwareAgent
from repro.harvest.software import SmartHarvestAgent
from repro.hw.context import SavedContext
from repro.hw.controller import HardHarvestController
from repro.mem.address import AddressSpace
from repro.mem.dram import DramModel
from repro.mem.hierarchy import CoreMemory, build_llc
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry, derive_server_seed
from repro.sim.stats import (
    BreakdownRecorder,
    Counter,
    LatencyRecorder,
    UtilizationTracker,
)
from repro.sim.units import SEC
from repro.telemetry import tracer as trc
from repro.telemetry.probes import ProbeEngine
from repro.workloads.batch import BATCH_JOBS, BatchJobProfile
from repro.workloads.alibaba import sample_instances, utilization_timeseries
from repro.workloads.loadgen import (
    generate_arrivals_correlated,
    generate_arrivals_from_trace,
    generate_burst_schedule,
)
from repro.workloads.memory_profile import BatchMemory, ServiceMemory
from repro.workloads.microservices import (
    draw_blocking_calls,
    draw_exec_time_us,
    draw_io_time_us,
)
from repro.workloads.suites import get_suite


def _no_emit(ts, kind, req=-1, vm=-1, core=-1, extra=0) -> None:
    """The trace hook with telemetry off: ``Tracer.emit``'s signature, no work."""


class ServerSimulation:
    """One simulated server under one system configuration.

    Built in steps (VMs, cores, agent, metrics, observers, workload), each
    creating the state it owns; then :meth:`run`, ``summarize`` and
    :meth:`close`.
    """

    def __init__(
        self,
        system: SystemConfig,
        simcfg: SimulationConfig,
        batch_job: Optional[BatchJobProfile] = None,
        server_index: int = 0,
    ):
        self.system = system
        self.simcfg = simcfg
        self.server_index = server_index
        self.sim = Simulator()
        self.rng = RngRegistry(derive_server_seed(simcfg.seed, server_index))
        # Hot-path hoists. Named streams are cached by the registry (same
        # generator object every call, seeded by name alone), so binding
        # them once removes a registry lookup per segment without touching
        # the draw sequence.
        self._mem_rng = self.rng.stream("mem")
        self._batchmem_rng = self.rng.stream("batchmem")
        self._costs_rng = self.rng.stream("costs")
        self.costs = CostModel(system)
        self.dram = DramModel(system.hierarchy.memory)
        self.nic = Nic()
        #: Dedicated backend servers (Memcached/Redis/MongoDB tiers).
        self.backends = BackendTier(self.sim)
        #: Without a hardware scheduler, requests are steered to per-core
        #: queues (RSS onto vCPU runqueues) — Section 4.1.6's software world.
        self.per_core_steering = not system.flags.sched
        self._build_vms(batch_job)
        self._build_cores()
        self.agent = self._make_agent()
        self.agent.attach(self)
        self._build_metrics()
        self._build_observers()
        # Pre-draw workload: identical across systems given the same seed.
        self._build_workload()

    # ------------------------------------------------------------------
    def _build_vms(self, batch_job: Optional[BatchJobProfile]) -> None:
        """The Primary and Harvest VMs, and with hardware scheduling the
        controller whose QMs serve them."""
        system = self.system
        cluster = system.cluster
        self.controller: Optional[HardHarvestController] = None
        if system.hardware_scheduling:
            self.controller = HardHarvestController(
                system.controller, cluster.cores_per_server, system.hierarchy.freq_ghz
            )
        self.primary_vms: List[PrimaryVm] = []
        self.vms_by_id: Dict[int, object] = {}
        services = get_suite(self.simcfg.suite)[: cluster.primary_vms_per_server]
        vm_id = 0
        for profile in services:
            space = AddressSpace(vm_id)
            memory = ServiceMemory(space, profile)
            llc = build_llc(
                f"LLC/vm{vm_id}", system.hierarchy, cluster.cores_per_primary_vm
            )
            if self.controller is not None:
                queue = self.controller.register_vm(
                    vm_id, True, cluster.cores_per_primary_vm
                )
            else:
                queue = SoftwareQueue(vm_id)
            vm = PrimaryVm(vm_id, profile, memory, llc, queue)
            self.primary_vms.append(vm)
            self.vms_by_id[vm_id] = vm
            vm_id += 1

        self.harvest_vms: List[HarvestVm] = []
        for h in range(cluster.harvest_vms_per_server):
            job = batch_job or BATCH_JOBS[(self.server_index + h) % len(BATCH_JOBS)]
            space = AddressSpace(vm_id)
            batch_memory = BatchMemory(
                space, job.code_pages, job.data_pages, job.skew
            )
            harvest_llc = build_llc(
                f"LLC/harvest{vm_id}", system.hierarchy, cluster.harvest_vm_base_cores
            )
            hvm = HarvestVm(
                vm_id, job, batch_memory, harvest_llc, active=system.batch_active
            )
            self.harvest_vms.append(hvm)
            self.vms_by_id[vm_id] = hvm
            if self.controller is not None:
                self.controller.register_vm(
                    vm_id, False, cluster.harvest_vm_base_cores
                )
            vm_id += 1
        #: The first Harvest VM (the paper's single-VM setup).
        self.harvest_vm = self.harvest_vms[0]
        self._lend_rr = 0  # round-robin lend target among Harvest VMs

    def _build_cores(self) -> None:
        """Each Primary VM's cores, then each Harvest VM's base cores; any
        left over stay idle and unbound."""
        cluster = self.system.cluster
        self.cores: List[Core] = []
        core_id = 0
        for vm in self.primary_vms:
            for _ in range(cluster.cores_per_primary_vm):
                core = self._make_core(core_id, vm.vm_id)
                vm.cores.append(core)
                core_id += 1
        for hvm in self.harvest_vms:
            for _ in range(cluster.harvest_vm_base_cores):
                core = self._make_core(core_id, hvm.vm_id)
                hvm.cores.append(core)
                core_id += 1
        while core_id < cluster.cores_per_server:
            self._make_core(core_id, -1)
            core_id += 1
        if self.simcfg.record_l2_trace:
            for core in self.cores:
                core.memory.l2.array.enable_trace(self.simcfg.trace_limit)
        #: Cores currently executing a batch unit (state BUSY with a live
        #: ``batch_event``), maintained at the four transition sites so the
        #: sync-overhead model reads a counter instead of scanning all
        #: cores.
        self._active_batch_cores = 0

    def _make_core(self, core_id: int, owner_vm_id: int) -> Core:
        memory = CoreMemory(self.system.hierarchy, self.system.partition, self.dram)
        core = Core(core_id, owner_vm_id, memory)
        self.cores.append(core)
        if self.controller is not None and owner_vm_id >= 0:
            self.controller.qm_for(owner_vm_id).bind_core(core_id)
        return core

    def _make_agent(self) -> HarvestAgent:
        trigger = self.system.trigger
        if trigger is HarvestTrigger.NEVER:
            return NoHarvestAgent()
        if self.system.flags.sched:
            if self.system.adaptive_trigger:
                from repro.harvest.adaptive import AdaptiveAgent

                return AdaptiveAgent()
            return HardwareAgent(trigger)
        return SmartHarvestAgent(trigger, self.system.smartharvest)

    def _build_metrics(self) -> None:
        """Latency, utilization and counters, and the run's end state."""
        self.latency: Dict[str, LatencyRecorder] = {
            vm.name: LatencyRecorder(vm.name) for vm in self.primary_vms
        }
        self.latency_all = LatencyRecorder("all")
        self.util = UtilizationTracker(self.system.cluster.cores_per_server)
        self._busy = 0
        self.counters = Counter()
        #: Flat counter store: hot handlers bump this dict directly instead
        #: of paying ``Counter.incr``'s method call + validation per event.
        #: Same underlying defaultdict, so cold-path ``incr`` calls and
        #: result extraction observe every update immediately.
        self._counts = self.counters._counts
        self.breakdowns = BreakdownRecorder()
        self.l2_primary_hits = 0
        self.l2_primary_accesses = 0
        self.l2_batch_hits = 0
        self.l2_batch_accesses = 0
        self.end_ns = 0
        self._target_completions = 0
        self._completions = 0
        self._finished = False
        self._closed = False

    def _build_observers(self) -> None:
        """Telemetry, fault injection and the client runtime; each stays
        None when its config is off.

        Every trace hook calls :attr:`emit` unconditionally: the tracer's
        ``emit`` with telemetry on, an empty function otherwise. Hooks only
        *read* state, so results are bit-identical either way.
        """
        simcfg = self.simcfg
        self.tracer: Optional[trc.Tracer] = None
        self.probes: Optional[ProbeEngine] = None
        tcfg = simcfg.telemetry
        if tcfg is not None and tcfg.enabled:
            self.tracer = trc.Tracer(tcfg.max_events)
            self.probes = ProbeEngine(self, tcfg)
        self.emit = _no_emit if self.tracer is None else self.tracer.emit
        self.injector: Optional[FaultInjector] = None
        if simcfg.faults is not None and len(simcfg.faults):
            self.injector = FaultInjector(self, simcfg.faults)
        self.client: Optional[ClientRuntime] = None
        if simcfg.client is not None:
            self.client = ClientRuntime(self, simcfg.client)

    def _build_workload(self) -> None:
        """Pre-draw every request's arrival and demand, and schedule the
        arrivals."""
        simcfg = self.simcfg
        horizon_ns = int(simcfg.horizon_ms * 1e6)
        warmup_ns = int(simcfg.warmup_ms * 1e6)
        last_arrival_ns = 0
        # One burst schedule per server: the services of an application
        # surge together (a user-traffic spike fans out through all of them).
        burst_windows = generate_burst_schedule(
            self.rng.stream("bursts"), horizon_ns
        )
        req_id = 0
        for vm in self.primary_vms:
            profile = vm.profile
            arr_rng = self.rng.stream(f"arrivals/{profile.name}")
            dem_rng = self.rng.stream(f"demand/{profile.name}")
            if simcfg.trace_driven:
                arrivals = self._trace_driven_arrivals(vm, arr_rng, horizon_ns)
            else:
                arrivals = generate_arrivals_correlated(
                    arr_rng,
                    profile,
                    self.system.cluster.cores_per_primary_vm,
                    horizon_ns,
                    burst_windows,
                    simcfg.load_scale,
                    simcfg.requests_per_service,
                )
            if arrivals:
                last_arrival_ns = max(last_arrival_ns, arrivals[-1])
            for t in arrivals:
                blocks = draw_blocking_calls(profile, dem_rng)
                exec_ns = int(draw_exec_time_us(profile, dem_rng) * 1000)
                # Pure backend service demand; network RT and backend
                # queueing are added by the backend tier at run time.
                ios = [
                    int(draw_io_time_us(profile, dem_rng) * 1000)
                    for _ in range(blocks)
                ]
                req = Request(
                    req_id=req_id,
                    vm_id=vm.vm_id,
                    service=profile.name,
                    arrival_ns=t,
                    measured=t >= warmup_ns,
                    exec_ns=exec_ns,
                    io_durations_ns=ios,
                    private_region=vm.memory.new_invocation(),
                )
                req_id += 1
                if self.client is not None:
                    self.client.register(req, exec_ns, ios)
                self.sim.schedule_at(t, self._arrival, vm, req)
                self._target_completions += 1
        #: Cluster-scale accounting: every pre-drawn arrival is simulated
        #: (warmup included), so this is the honest "requests simulated"
        #: figure a sharded run sums across servers and epochs.
        self.counters.incr("requests_arrived", req_id)
        #: Continuation of the pre-drawn id space for retry/hedge attempts.
        self._next_req_id = req_id
        self._horizon_ns = horizon_ns
        #: Safety cap on a loaded run's drain: generous time after the
        #: last arrival, so only a runaway config ever reaches it.
        self._cap_ns = 5 * last_arrival_ns + 10 * SEC

    def _trace_driven_arrivals(self, vm, arr_rng, horizon_ns: int):
        """Arrivals at the rates of a matched Alibaba instance (Section 5).

        Samples an instance utilization profile from the synthetic Alibaba
        population, expands it into a bursty time series at
        ``trace_interval_ms`` granularity, and converts utilization to a
        request rate via the service's mean busy time.
        """
        simcfg = self.simcfg
        trace_rng = self.rng.stream(f"alibaba/{vm.profile.name}")
        instance = sample_instances(trace_rng, 1)[0]
        interval_ns = int(simcfg.trace_interval_ms * 1e6)
        n_points = max(1, -(-horizon_ns // interval_ns))  # ceil division
        series = utilization_timeseries(
            trace_rng, instance, duration_s=n_points, granularity_s=1
        )
        return generate_arrivals_from_trace(
            arr_rng,
            vm.profile,
            self.system.cluster.cores_per_primary_vm,
            series,
            interval_ns,
            simcfg.load_scale,
            simcfg.requests_per_service,
        )

    # ==================================================================
    # Run loop
    # ==================================================================
    def run(self) -> None:
        """Run a loaded server until every Primary request resolves, and
        one with no Primary arrivals to its horizon.

        A loaded run stops at the safety cap at the latest, counting
        ``horizon_cap_hit``; one that runs out of events first ends at
        its last event.
        """
        if self._closed:
            raise RuntimeError("cannot run a closed ServerSimulation")
        if self.probes is not None:
            self.probes.start()
        self.agent.start()
        if self.injector is not None:
            self.injector.start()
        for hvm in self.harvest_vms:
            if hvm.active:
                for core in hvm.cores:
                    self._start_batch_unit(core)
        if not self._target_completions:
            # Nothing to drain: the run covers its epoch, so its rates do.
            self.sim.run(until=self._horizon_ns)
            self.end_ns = self._horizon_ns
            return
        self.sim.run(until=self._cap_ns)
        # Live events left unfired (a heap of cancelled deadline timers is
        # drained): the cap, not the drain, ended the run.
        if not self._finished and self.sim.pending_live_events:
            self.counters.incr("horizon_cap_hit")
        self.end_ns = max(self.sim.now, 1)

    def close(self) -> None:
        """End the run: drop the references that make it cyclic garbage.

        Cores, VMs, the agent and every pending event refer back to this
        server, so without this a finished point lingers until the next
        full collection.  Call it once ``summarize`` has read the results:
        it clears no state a result or an export reads (metrics, counters,
        tracer, probe series), only the event heaps and the components'
        back-references.  Idempotent; a closed simulation refuses
        :meth:`run`.
        """
        if self._closed:
            return
        self._closed = True
        self.sim.close()
        self.backends.close()
        self.agent.engine = None
        for part in (self.probes, self.injector, self.client):
            if part is not None:
                part.server = None

    # ==================================================================
    # Utilization bookkeeping
    # ==================================================================
    def _enter_busy(self) -> None:
        self._busy += 1
        self.util.set_busy(self.sim.now, self._busy)

    def _leave_busy(self) -> None:
        self._busy -= 1
        self.util.set_busy(self.sim.now, self._busy)

    # ==================================================================
    # Arrival and dispatch
    # ==================================================================
    def _arrival(self, vm: PrimaryVm, req: Request) -> None:
        self.emit(self.sim.now, trc.REQ_ARRIVAL, req.req_id, vm.vm_id)
        if self.client is not None:
            # Arm the attempt's deadline before the network can lose it:
            # the client only learns of a drop when the deadline expires.
            self.client.on_attempt_arrival(vm, req)
            if req.failed:
                return  # stale hedge/retry of an already-resolved logical
        extra_ns = 0
        if self.injector is not None:
            dropped, extra_ns = self.injector.arrival_fate()
            if dropped:
                self._drop_attempt(vm, req)
                return
        latency = self.nic.deliver(
            vm.llc, (vm.vm_id << 44) | (1 << 30), lambda: None
        )
        self.sim.schedule(latency + extra_ns, self._enqueue, vm, req)

    def _drop_attempt(self, vm: PrimaryVm, req: Request) -> None:
        """The network (or a dark server) swallowed this attempt."""
        if self.client is not None:
            # The deadline timer keeps running; its expiry drives the retry.
            req.failed = True
            self.emit(self.sim.now, trc.REQ_FAIL, req.req_id, vm.vm_id, -1, -1)
        else:
            self._fail_attempt(vm, req)

    def _enqueue(self, vm: PrimaryVm, req: Request) -> None:
        if req.failed:
            return
        if self.injector is not None and self.injector.server_down:
            # The server died between NIC delivery and enqueue.
            self.counters.incr("faults_arrivals_dropped")
            self._drop_attempt(vm, req)
            return
        if (
            self.client is not None
            and self.client.policy.admission_queue_depth > 0
            and vm.queue.pending() >= self.client.policy.admission_queue_depth
        ):
            # Admission control: fast-fail instead of growing the queue
            # without bound; the client backs off and retries.
            self.counters.incr("admission_shed")
            self.emit(self.sim.now, trc.REQ_SHED, req.req_id, vm.vm_id)
            self.client.on_shed(vm, req)
            return
        now = self.sim.now
        req.ready_since_ns = now
        if self.per_core_steering:
            # RSS steering with slow re-steer: the NIC hashes flows over the
            # VM's vCPUs; the stack re-steers away from a harvested core
            # only after ``resteer_ns`` — arrivals inside that window land
            # on the loaned core's queue and need a buffer core or reclaim.
            resteer = self.system.software_costs.resteer_ns
            cores = vm.cores
            # The filtered list is only built when some core actually sits
            # past its re-steer window (loans are uncommon).
            eligible = cores
            for c in cores:
                if c.on_loan and now - c.loan_start_ns > resteer:
                    eligible = [
                        c2
                        for c2 in cores
                        if not (c2.on_loan and now - c2.loan_start_ns > resteer)
                    ] or cores
                    break
            req.steered_core_id = eligible[vm.rr_cursor % len(eligible)].core_id
            vm.rr_cursor += 1
        in_hw = vm.queue.enqueue(req)
        if not in_hw:
            self._counts["queue_overflow_spills"] += 1
        self.emit(
            self.sim.now,
            trc.REQ_ENQUEUE if in_hw else trc.REQ_ENQUEUE_SPILL,
            req.req_id,
            vm.vm_id,
            -1,
            vm.queue.pending(),
        )
        self._work_available(vm)

    def _work_available(self, vm: PrimaryVm) -> None:
        """Start a dispatch or a reclaim if ``vm`` has ready work.

        Runs on every enqueue and every I/O completion, so it scans the
        core list once per decision instead of materializing
        idle/loaned/available sublists.
        """
        queue = vm.queue
        if not queue.has_ready():
            return
        cores = vm.cores
        if not self.per_core_steering:
            # Shared per-VM subqueue: the first idle bound core in core
            # order serves the head.
            for c in cores:
                if c.state == IDLE and not c.on_loan:
                    self._start_dispatch(c, vm)
                    return
            for c in cores:
                if c.on_loan and c.state != SWITCHING:
                    self._start_reclaim(vm, c)
                    return
            return

        # Per-core steering: each ready request waits for *its* core.
        stuck_on_loan = []
        all_cores = self.cores
        for core_id in queue.ready_steered_cores():
            core = all_cores[core_id]
            if core.state == IDLE and not core.on_loan and core.guest_vm_id is None:
                self._start_dispatch(core, vm)
            elif core.on_loan:
                stuck_on_loan.append(core)
        if stuck_on_loan:
            # A request is stranded on a harvested core. SmartHarvest's fast
            # path: attach an emergency-buffer core; only if the buffer is
            # exhausted does the slow reclaim start.
            if not self._borrow_buffer_core(vm):
                for core in stuck_on_loan:
                    if core.state != SWITCHING:
                        self._start_reclaim(vm, core)
                        break
        # Queue pressure: more ready work than attached cores while some
        # cores are on loan — expand capacity by reclaiming.
        available = 0
        for c in cores:
            if not c.on_loan and c.guest_vm_id is None:
                available += 1
        if queue.ready_count() > available:
            for c in cores:
                if c.on_loan and c.state != SWITCHING:
                    self._start_reclaim(vm, c)
                    break

    def _borrow_buffer_core(self, vm: PrimaryVm) -> bool:
        """Attach an idle buffer core from another Primary VM to ``vm``.

        The buffer is small by construction: at most
        ``emergency_buffer_cores`` may be attached as guests at once —
        that is the whole point of it being an *emergency* buffer.
        """
        in_use = sum(1 for c in self.cores if c.guest_vm_id is not None)
        if in_use >= self.system.smartharvest.emergency_buffer_cores:
            return False
        for donor in self.primary_vms:
            if donor.vm_id == vm.vm_id or donor.queue.has_ready():
                continue
            for core in donor.cores:
                if (
                    core.state == IDLE
                    and not core.on_loan
                    and core.guest_vm_id is None
                ):
                    self._start_dispatch(core, vm)
                    return True
        return False

    def _loaned_core_ids(self, vm: PrimaryVm) -> set:
        return {c.core_id for c in vm.cores if c.on_loan}

    def _start_dispatch(self, core: Core, vm: PrimaryVm, steal: bool = False) -> None:
        """Dequeue one of ``vm``'s requests and start its dispatch on ``core``.

        A core of another VM serves ``vm`` as an emergency-buffer guest: it
        takes any of ``vm``'s ready work, and attaching it (the first
        dispatch) costs ``buffer_attach_ns``, charged as reassignment,
        instead of a dispatch.
        """
        guest = core.owner_vm_id != vm.vm_id
        if steal:
            # Stealing may not touch work stranded on loaned cores: the OS
            # keeps those threads on their (descheduled) vCPU runqueues.
            req = vm.queue.dequeue(None, exclude_steered_to=self._loaned_core_ids(vm))
        elif guest:
            req = vm.queue.dequeue()
        else:
            req = vm.queue.dequeue(core.core_id if self.per_core_steering else None)
        if req is None:
            return
        core.state = SWITCHING
        core.idle_cause = None
        core.current_request = req
        if guest and core.guest_vm_id is None:
            core.guest_vm_id = vm.vm_id
            delay = self.system.smartharvest.buffer_attach_ns
            req.breakdown.reassign_ns += delay
            self._counts["buffer_borrows"] += 1
        else:
            delay = self.costs.dispatch_ns(self._costs_rng)
            if steal:
                # OS load balancing: pulling work steered to a sibling core.
                delay += self.system.software_costs.rebalance_ns
        req.breakdown.queueing_ns += self.sim.now - req.ready_since_ns + delay
        self.emit(
            self.sim.now, trc.REQ_DISPATCH, req.req_id, vm.vm_id, core.core_id, delay
        )
        core.run_event = self.sim.schedule(delay, self._dispatch_done, core, vm, req)

    def _dispatch_done(self, core: Core, vm: PrimaryVm, req: Request) -> None:
        core.run_event = None
        if req.failed:
            # Abandoned (timeout/crash) while the dispatch was in flight.
            core.current_request = None
            vm.queue.discard(req)
            self._core_released(core, "term")
            return
        if req.context_slot is not None and self.controller is not None:
            # Resume from I/O: restore the parked register state.
            self.controller.context_memory.restore(req.context_slot)
            req.context_slot = None
        reassign, flush = core.take_pending_costs()
        req.breakdown.reassign_ns += reassign
        req.breakdown.flush_ns += flush
        if req.first_start_ns is None:
            req.first_start_ns = self.sim.now
        core.state = BUSY
        self._enter_busy()
        self.emit(self.sim.now, trc.REQ_EXEC, req.req_id, vm.vm_id, core.core_id)
        self._run_segment(core, vm, req)

    # ==================================================================
    # Execution
    # ==================================================================
    def _segment_duration_ns(self, core: Core, vm: PrimaryVm, req: Request) -> int:
        n = self.simcfg.accesses_per_segment
        batch = vm.memory.sample(self._mem_rng, n, req.private_region)
        l2 = core.memory.l2.array
        h0, a0 = l2.hits, l2.accesses
        total_ns = core.memory.access_batch(batch, vm.llc, True, self.sim.now)
        self.l2_primary_hits += l2.hits - h0
        self.l2_primary_accesses += l2.accesses - a0
        l_avg = total_ns / max(1, n)
        seg_cpu_ns = req.seg_cpu_ns
        refs = vm.profile.mem_refs_per_us * (seg_cpu_ns / 1000.0)
        return seg_cpu_ns + int(l_avg * refs)

    def _run_segment(self, core: Core, vm: PrimaryVm, req: Request) -> None:
        duration = self._segment_duration_ns(core, vm, req)
        if self.injector is not None:
            duration = int(duration * self.injector.slowdown_factor(core.core_id))
        req.breakdown.execution_ns += duration
        core.run_event = self.sim.schedule(
            duration, self._segment_done, core, vm, req
        )

    def _segment_done(self, core: Core, vm: PrimaryVm, req: Request) -> None:
        core.run_event = None
        if req.failed:
            # The attempt was abandoned mid-segment; drop the result.
            core.current_request = None
            self._leave_busy()
            vm.queue.discard(req)
            self._core_released(core, "term")
            return
        req.segments_done += 1
        core.current_request = None
        self._leave_busy()
        if req.segments_done < req.segments_total:
            # Block on I/O: the entry stays in the queue, marked blocked;
            # with hardware context switching, the request's register state
            # parks in the Request Context Memory until the response.
            vm.queue.mark_blocked(req)
            if self.controller is not None and self.system.flags.ctxtsw:
                req.context_slot = self.controller.context_memory.save(
                    SavedContext(
                        request=req.req_id,
                        vm_id=vm.vm_id,
                        program_counter=req.segments_done,
                    )
                )
            demand_ns = req.io_durations_ns[req.segments_done - 1]
            self.emit(
                self.sim.now, trc.REQ_BLOCK, req.req_id, vm.vm_id, core.core_id,
                demand_ns,
            )
            rt = self.system.cluster.inter_server_rt_ns
            self.agent.observe_block(vm.vm_id, demand_ns + rt)
            self._issue_backend_call(vm, req, demand_ns, rt)
            self._core_released(core, "block")
        else:
            vm.queue.complete(req)
            req.completion_ns = self.sim.now
            self.emit(
                self.sim.now, trc.REQ_COMPLETE, req.req_id, vm.vm_id, core.core_id,
                vm.queue.pending(),
            )
            if self.client is not None:
                # The client dedupes hedges/retries and supplies the
                # logical (first-arrival to now) latency.
                counted, lat = self.client.on_complete(vm, req)
            else:
                counted, lat = req.measured, req.latency_ns()
            if counted:
                self.latency[vm.name].record(lat)
                self.latency_all.record(lat)
                self.breakdowns.record(vm.name, req.breakdown)
                self._counts["requests_measured"] += 1
            if self.client is None:
                self._logical_resolved()
            self._core_released(core, "term")

    def _issue_backend_call(
        self, vm: PrimaryVm, req: Request, demand_ns: int, rt: int
    ) -> None:
        """Route a blocking call to its backend server (Figure 1's Cache /
        Database helpers): half the network RT out, queue + execute on the
        backend, half the RT back, then the response marks the request
        ready via the NIC path."""
        backend = self.backends.for_service(vm.profile.name)

        def respond() -> None:
            self.sim.schedule(rt - rt // 2, self._io_complete, vm, req)

        self.sim.schedule(
            rt // 2, backend.submit, max(1, demand_ns), respond
        )

    def _io_complete(self, vm: PrimaryVm, req: Request) -> None:
        if req.failed:
            return  # abandoned while blocked; its entry is already gone
        vm.queue.mark_ready(req)
        req.ready_since_ns = self.sim.now
        self.emit(self.sim.now, trc.REQ_READY, req.req_id, vm.vm_id)
        self._work_available(vm)

    def _owner_with_work(self, core: Core) -> Optional[PrimaryVm]:
        """``core``'s Primary VM if it has ready work the core may take.

        Under per-core steering a core takes only the requests steered to
        it; a shared subqueue serves any of the VM's cores.
        """
        owner = self.vms_by_id.get(core.owner_vm_id)
        if isinstance(owner, PrimaryVm) and owner.queue.has_ready(
            core.core_id if self.per_core_steering else None
        ):
            return owner
        return None

    def _core_released(self, core: Core, cause: str) -> None:
        stalled = self.injector is not None and self.injector.is_stalled(core)
        if core.guest_vm_id is not None:
            guest = self.vms_by_id[core.guest_vm_id]
            if (
                not stalled
                and guest.queue.has_ready()
                and self._owner_with_work(core) is None
            ):
                # Keep serving the borrowing VM while it has work and the
                # owner does not need the core.
                self._start_dispatch(core, guest)
                return
            # Return to owner: scrub the private state (the buffer keeps
            # cores clean; the flush runs while the core is idle).
            core.memory.flush_private_full()
            core.guest_vm_id = None
            self._counts["buffer_returns"] += 1
        core.state = STALLED if stalled else IDLE
        core.idle_cause = cause
        core.idle_since = self.sim.now
        if stalled:
            # Core-stall fault: parked until the window ends (the injector
            # resumes the core via _resume_stalled).
            return
        owner = self._owner_with_work(core)
        if owner is not None:
            self._start_dispatch(core, owner)
            return
        owner = self.vms_by_id.get(core.owner_vm_id)
        if isinstance(owner, PrimaryVm):
            if self.per_core_steering and owner.queue.has_ready(
                None, exclude_steered_to=self._loaned_core_ids(owner)
            ):
                # Idle with work queued at a sibling (attached) core: steal
                # it after the OS rebalance latency.
                self._start_dispatch(core, owner, steal=True)
                return
            if self.injector is not None and self.injector.server_down:
                return  # dark server: nothing to lend or serve
            if self.agent.on_core_idle(core, cause):
                self._start_lend(core)
        elif isinstance(owner, HarvestVm):
            if owner.active:
                self._start_batch_unit(core)

    def _resume_stalled(self, core: Core) -> None:
        """A core-stall window ended: put the core back to work."""
        if core.state != STALLED:
            return
        core.state = IDLE
        if core.on_loan:
            owner = self._owner_with_work(core)
            if owner is not None:
                self._start_reclaim(owner, core)
            else:
                self._start_batch_unit(core)
            return
        self._core_released(core, "term")

    # ==================================================================
    # Lending (Primary -> Harvest)
    # ==================================================================
    def start_lend(self, core: Core) -> None:
        """Public entry for agents (e.g. the SmartHarvest monitor)."""
        if core.state != IDLE or core.on_loan or core.guest_vm_id is not None:
            return
        if self.injector is not None and self.injector.server_down:
            return
        if not isinstance(self.vms_by_id.get(core.owner_vm_id), PrimaryVm):
            return
        if self._owner_with_work(core) is None:
            self._start_lend(core)

    def _start_lend(self, core: Core) -> None:
        owner = self.vms_by_id[core.owner_vm_id]
        cost = self.costs.lend_cost(core.memory)
        core.state = SWITCHING
        core.on_loan = True
        core.loan_start_ns = self.sim.now
        self._counts["lends"] += 1
        self.emit(
            self.sim.now, trc.CORE_LEND, -1, core.owner_vm_id, core.core_id,
            cost.critical_ns,
        )
        if self.controller is not None:
            self.controller.qm_for(owner.vm_id).lend_core(core.core_id)
        core.run_event = self.sim.schedule(
            cost.critical_ns, self._lend_done, core, cost.flush
        )

    def _pick_harvest_vm(self) -> HarvestVm:
        """Round-robin lend target among the server's Harvest VMs."""
        vm = self.harvest_vms[self._lend_rr % len(self.harvest_vms)]
        self._lend_rr += 1
        return vm

    def _harvest_vm_of(self, core: Core) -> HarvestVm:
        """The Harvest VM whose work is (or will be) running on ``core``."""
        vm = self.vms_by_id.get(core.running_vm_id)
        if isinstance(vm, HarvestVm):
            return vm
        owner = self.vms_by_id.get(core.owner_vm_id)
        if isinstance(owner, HarvestVm):
            return owner
        return self.harvest_vm

    def _lend_done(self, core: Core, flush) -> None:
        core.run_event = None
        flushed = flush()
        self._counts["lend_flushed_entries"] += flushed
        target = self._pick_harvest_vm()
        self.emit(
            self.sim.now, trc.CORE_LEND_DONE, -1, target.vm_id, core.core_id, flushed
        )
        core.running_vm_id = target.vm_id
        self._load_vm_state(core, target.vm_id)
        owner = self._owner_with_work(core)
        if owner is not None:
            # Work arrived during the transition: bounce straight back.
            self._start_reclaim(owner, core)
            return
        if target.active:
            self._start_batch_unit(core)
        else:
            core.state = IDLE
            core.idle_cause = None

    # ==================================================================
    # Batch execution on the Harvest VM
    # ==================================================================
    def _batch_unit_duration_ns(self, core: Core, hvm: HarvestVm) -> int:
        job = hvm.job
        n = max(8, self.simcfg.accesses_per_segment // 2)
        batch = hvm.memory.sample(self._batchmem_rng, n)
        l2 = core.memory.l2.array
        h0, a0 = l2.hits, l2.accesses
        is_primary_view = not core.on_loan  # own cores see full structures
        total_ns = core.memory.access_batch(
            batch, hvm.llc, is_primary_view, self.sim.now
        )
        self.l2_batch_hits += l2.hits - h0
        self.l2_batch_accesses += l2.accesses - a0
        l_avg = total_ns / n
        cpu_ns = int(job.unit_us * 1000)
        refs = job.mem_refs_per_us * job.unit_us
        base = cpu_ns + int(l_avg * refs)
        # Sublinear scaling: coordination costs grow with active batch cores.
        return int(base * (1.0 + job.sync_overhead * self._active_batch_cores))

    def _start_batch_unit(self, core: Core) -> None:
        if self.injector is not None:
            if self.injector.server_down:
                core.state = IDLE
                return
            if self.injector.is_stalled(core):
                core.state = STALLED
                core.idle_since = self.sim.now
                return
        hvm = self._harvest_vm_of(core)
        if not hvm.active:
            core.state = IDLE
            return
        unit = hvm.next_unit()
        if unit.context_slot is not None and self.controller is not None:
            # Hardware context switch: restore the preempted vCPU state
            # from the Request Context Memory (Section 4.1.4).
            self.controller.context_memory.restore(unit.context_slot)
            unit.context_slot = None
        duration = int(
            self._batch_unit_duration_ns(core, hvm) * unit.remaining_frac
        )
        if self.injector is not None:
            duration = int(duration * self.injector.slowdown_factor(core.core_id))
        duration = max(1, duration)
        core.state = BUSY
        core.batch_unit_start_ns = self.sim.now
        core.batch_unit_duration_ns = duration
        core.batch_unit_remaining_tag = unit.remaining_frac
        self._enter_busy()
        self.emit(self.sim.now, trc.BATCH_START, -1, hvm.vm_id, core.core_id, duration)
        core.batch_event = self.sim.schedule(
            duration, self._batch_unit_done, core, unit.remaining_frac
        )
        self._active_batch_cores += 1

    def _batch_unit_done(self, core: Core, frac: float) -> None:
        hvm = self._harvest_vm_of(core)
        hvm.units_completed += frac
        core.batch_event = None
        self._active_batch_cores -= 1
        self._leave_busy()
        self.emit(self.sim.now, trc.BATCH_DONE, -1, hvm.vm_id, core.core_id)
        if self.injector is not None and self.injector.is_stalled(core):
            core.state = STALLED
            core.idle_since = self.sim.now
            return
        if core.on_loan:
            owner = self._owner_with_work(core)
            if owner is not None:
                self._start_reclaim(owner, core)
                return
        self._start_batch_unit(core)

    def _load_vm_state(self, core: Core, vm_id: int) -> None:
        """Load the VM State Register Set of ``vm_id`` onto the core
        (hardware systems: the QM ships the set with the reassignment)."""
        if self.controller is None:
            return
        core.loaded_cr3 = self.controller.qm_for(vm_id).state_registers.read("CR3")

    # ==================================================================
    # Reclamation (Harvest -> Primary)
    # ==================================================================
    def _start_reclaim(self, vm: PrimaryVm, core: Core) -> None:
        """Interrupt a loaned core and return it to its Primary VM."""
        if core.batch_event is not None:
            # Preempt the in-flight batch unit.
            core.batch_event.cancel()
            core.batch_event = None
            self._active_batch_cores -= 1
            elapsed = self.sim.now - core.batch_unit_start_ns
            duration = max(1, core.batch_unit_duration_ns)
            done_frac = min(1.0, elapsed / duration)
            started_frac = core.batch_unit_remaining_tag or 1.0
            remaining = max(0.0, started_frac * (1.0 - done_frac))
            preserved = self.system.flags.ctxtsw
            hvm = self._harvest_vm_of(core)
            if preserved:
                hvm.units_completed += started_frac - remaining
                slot = None
                if remaining > 0 and self.controller is not None:
                    # Save the preempted vCPU's state in hardware
                    # (Figure 8c step 4); restored when the unit resumes.
                    slot = self.controller.context_memory.save(
                        SavedContext(
                            request=f"batch@core{core.core_id}",
                            vm_id=hvm.vm_id,
                            program_counter=int(remaining * 1e6),
                        )
                    )
                hvm.return_partial(
                    0.0 if remaining <= 0 else remaining, True, 0, slot
                )
            else:
                hvm.return_partial(started_frac, False, int(elapsed))
            self._leave_busy()
            self.emit(
                self.sim.now, trc.BATCH_PREEMPT, -1, hvm.vm_id, core.core_id,
                int(elapsed),
            )
        core.state = SWITCHING
        core.reclaim_in_flight = True
        self._counts["reclaims"] += 1
        cost = self.costs.reclaim_cost(core.memory, self._costs_rng)
        self.emit(
            self.sim.now, trc.CORE_RECLAIM, -1, vm.vm_id, core.core_id,
            cost.critical_ns,
        )
        core.pending_reassign_ns = cost.reassign_ns
        core.pending_flush_ns = cost.flush_ns
        core.run_event = self.sim.schedule(
            cost.critical_ns, self._reclaim_done, core, cost.flush
        )

    def _reclaim_done(self, core: Core, flush) -> None:
        core.run_event = None
        flushed = flush()
        self._counts["reclaim_flushed_entries"] += flushed
        self.emit(
            self.sim.now, trc.CORE_RECLAIM_DONE, -1, core.owner_vm_id, core.core_id,
            flushed,
        )
        core.on_loan = False
        core.reclaim_in_flight = False
        core.running_vm_id = core.owner_vm_id
        self._load_vm_state(core, core.owner_vm_id)
        owner = self.vms_by_id[core.owner_vm_id]
        if self.controller is not None:
            qm = self.controller.qm_for(owner.vm_id)
            if core.core_id in qm.on_loan:
                qm.reclaim_core(core.core_id)
        # Back in the Primary VM: dispatch if work remains, else the core is
        # idle (and, per Section 4.1.4, immediately lendable again).
        self._core_released(core, "term")

    # ==================================================================
    # Fault handling (driven by the FaultInjector / ClientRuntime)
    # ==================================================================
    def _next_attempt_id(self) -> int:
        """Fresh request id for a client retry/hedge attempt."""
        rid = self._next_req_id
        self._next_req_id += 1
        return rid

    def _logical_resolved(self) -> None:
        """One logical request reached a terminal state (completed, lost,
        or permanently failed); the run ends when all of them have."""
        self._completions += 1
        if self._completions >= self._target_completions:
            self._finished = True
            self.sim.stop()

    def _fail_attempt(self, vm: PrimaryVm, req: Request) -> None:
        """Abandon an attempt: scrub its queue entry and context slot.

        Idempotent. With a client, resolution is the client's job (the
        deadline timer will fire and drive a retry or a permanent failure);
        without one, the request is simply lost and resolved here.
        """
        if req.failed or req.completion_ns is not None:
            return
        req.failed = True
        if req.context_slot is not None and self.controller is not None:
            try:
                self.controller.context_memory.restore(req.context_slot)
            except KeyError:
                pass
            req.context_slot = None
        discarded = vm.queue.discard(req)
        self.emit(
            self.sim.now, trc.REQ_FAIL, req.req_id, vm.vm_id, -1,
            vm.queue.pending() if discarded else -1,
        )
        if self.client is None:
            self.counters.incr("requests_lost")
            self._logical_resolved()

    def _crash_begin(self) -> None:
        """SERVER_CRASH window opens: every in-flight request, queued
        entry, and batch unit on this server dies; cores reset clean."""
        self.counters.incr("faults_crashes")
        now = self.sim.now
        self.emit(now, trc.SERVER_CRASH)
        for core in self.cores:
            if core.run_event is not None:
                core.run_event.cancel()
                core.run_event = None
            if core.batch_event is not None:
                core.batch_event.cancel()
                core.batch_event = None
                self._active_batch_cores -= 1
                self._harvest_vm_of(core).work_lost_ns += max(
                    0, now - core.batch_unit_start_ns
                )
            req = core.current_request
            if req is not None:
                core.current_request = None
                self._fail_attempt(self.vms_by_id[req.vm_id], req)
            core.state = IDLE
            core.idle_cause = "term"
            core.idle_since = now
            core.on_loan = False
            core.reclaim_in_flight = False
            core.guest_vm_id = None
            core.running_vm_id = core.owner_vm_id
            core.pending_reassign_ns = 0
            core.pending_flush_ns = 0
            core.batch_unit_remaining_tag = None
        self._busy = 0
        self.util.set_busy(now, 0)
        for vm in self.primary_vms:
            for req in vm.queue.drain():
                self._fail_attempt(vm, req)
        if self.controller is not None:
            for qm in self.controller.qms.values():
                for core_id in list(qm.on_loan):
                    qm.reclaim_core(core_id)
            for hvm in self.harvest_vms:
                for unit in hvm.partial_units:
                    if unit.context_slot is not None:
                        try:
                            self.controller.context_memory.restore(
                                unit.context_slot
                            )
                        except KeyError:
                            pass
        for hvm in self.harvest_vms:
            hvm.partial_units.clear()
        if self.injector is not None:
            # A concurrently active stall window keeps its cores parked
            # through the restart.
            for core in self.cores:
                if self.injector.is_stalled(core):
                    core.state = STALLED

    def _crash_end(self) -> None:
        """SERVER_CRASH window closes: the server restarts clean and
        resumes serving (new arrivals + client retries) and batching."""
        self.counters.incr("faults_restarts")
        self.emit(self.sim.now, trc.SERVER_RESTART)
        for hvm in self.harvest_vms:
            if hvm.active:
                for core in hvm.cores:
                    if core.state == IDLE:
                        self._start_batch_unit(core)
        for vm in self.primary_vms:
            self._work_available(vm)

    def resilience_summary(self) -> Dict[str, float]:
        """Degradation metrics (goodput, retry amplification, SLO violation
        rate, time-to-recovery) when faults and/or a client are configured;
        empty for plain runs."""
        if self.client is not None:
            return self.client.summary(self.end_ns)
        if self.injector is not None:
            offered = float(self._target_completions)
            lost = float(self.counters["requests_lost"])
            completed = offered - lost
            return {
                "offered": offered,
                "completed": completed,
                "failed": lost,
                "goodput": completed / max(1.0, offered),
            }
        return {}

    # ==================================================================
    # Results
    # ==================================================================
    def average_busy_cores(self) -> float:
        return self.util.average_busy(self.end_ns)

    def batch_throughput_per_s(self) -> float:
        total = sum(h.units_completed for h in self.harvest_vms)
        return total / (self.end_ns / SEC)

    def l2_primary_hit_rate(self) -> float:
        if self.l2_primary_accesses == 0:
            return 0.0
        return self.l2_primary_hits / self.l2_primary_accesses

    def l2_batch_hit_rate(self) -> float:
        if self.l2_batch_accesses == 0:
            return 0.0
        return self.l2_batch_hits / self.l2_batch_accesses
