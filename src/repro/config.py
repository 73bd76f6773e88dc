"""Configuration dataclasses for the HardHarvest reproduction.

Defaults mirror Table 1 of the paper plus the cost constants quoted in the
text (Sections 1, 3, 4): KVM core reassignment ~5 ms, SmartHarvest-optimized
reassignment in the hundreds of µs, ``wbinvd`` full flush 300–500 µs,
HardHarvest harvest-region flush 1000 cycles, hardware reassignment a few µs
(tens of ns with hardware context switching).

Everything an experiment can vary lives here; the presets in
:mod:`repro.core.presets` compose these into the five evaluated systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

# Re-exported here so the serializer's type registry (which walks this
# module) can round-trip fault/resilience configs embedded in
# SimulationConfig.  spec.py imports nothing from repro.config, so there
# is no cycle.
from repro.faults.spec import (  # noqa: F401 - registry re-export
    ClientPolicy,
    FaultKind,
    FaultSchedule,
    FaultSpec,
)
from repro.sim.units import KB, MB, MS, US
from repro.telemetry.spec import TelemetryConfig  # noqa: F401 - registry re-export


# ---------------------------------------------------------------------------
# Memory hierarchy (Table 1)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one set-associative cache level."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int
    round_trip_cycles: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError(f"{self.name}: sizes and ways must be positive")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    def scaled_ways(self, fraction: float) -> "CacheConfig":
        """A copy with the way count scaled by ``fraction`` (sets constant).

        This is the paper's Figure 7 experiment: reduce ways to 75/50/25%
        while keeping the number of sets constant.
        """
        new_ways = max(1, int(round(self.ways * fraction)))
        new_size = new_ways * self.line_bytes * self.num_sets
        return replace(self, ways=new_ways, size_bytes=new_size)


@dataclass(frozen=True)
class TlbConfig:
    """Geometry and latency of one TLB level."""

    name: str
    entries: int
    ways: int
    round_trip_cycles: int
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.ways <= 0:
            raise ValueError(f"{self.name}: entries and ways must be positive")
        if self.entries % self.ways != 0:
            raise ValueError(
                f"{self.name}: entries {self.entries} not divisible by ways {self.ways}"
            )

    @property
    def num_sets(self) -> int:
        return self.entries // self.ways

    def scaled_ways(self, fraction: float) -> "TlbConfig":
        new_ways = max(1, int(round(self.ways * fraction)))
        return replace(self, ways=new_ways, entries=new_ways * self.num_sets)


@dataclass(frozen=True)
class MemoryConfig:
    """Main-memory model (replaces DRAMSim2 with a latency/bandwidth model)."""

    access_ns: int = 90
    page_walk_cycles: int = 120
    bandwidth_gbps: float = 102.4


@dataclass(frozen=True)
class HierarchyConfig:
    """Per-core private caches/TLBs plus the per-core LLC slice (Table 1)."""

    freq_ghz: float = 3.0
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 48 * KB, 12, 64, 5)
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1I", 32 * KB, 8, 64, 5)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 512 * KB, 8, 64, 13)
    )
    llc_per_core: CacheConfig = field(
        default_factory=lambda: CacheConfig("LLC", 2 * MB, 16, 64, 36)
    )
    l1_tlb: TlbConfig = field(default_factory=lambda: TlbConfig("L1TLB", 128, 4, 2))
    l2_tlb: TlbConfig = field(default_factory=lambda: TlbConfig("L2TLB", 2048, 8, 12))
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    #: Model infinite caches/TLBs (everything L1-hits): Figure 7's "Inf" bar.
    infinite: bool = False

    def scaled(self, fraction: float) -> "HierarchyConfig":
        """Scale the ways of every cache and TLB (Figure 7 sweep)."""
        return replace(
            self,
            l1d=self.l1d.scaled_ways(fraction),
            l1i=self.l1i.scaled_ways(fraction),
            l2=self.l2.scaled_ways(fraction),
            llc_per_core=self.llc_per_core.scaled_ways(fraction),
            l1_tlb=self.l1_tlb.scaled_ways(fraction),
            l2_tlb=self.l2_tlb.scaled_ways(fraction),
        )

    def with_llc_mb_per_core(self, mb: float) -> "HierarchyConfig":
        """Set LLC capacity per core (Figure 18 sweep), keeping 16 ways."""
        size = int(mb * MB)
        ways = self.llc_per_core.ways
        line = self.llc_per_core.line_bytes
        # Round size down to a whole number of sets.
        sets = max(1, size // (ways * line))
        return replace(
            self,
            llc_per_core=replace(self.llc_per_core, size_bytes=sets * ways * line),
        )


# ---------------------------------------------------------------------------
# Replacement / partitioning
# ---------------------------------------------------------------------------
class ReplacementKind(Enum):
    """Cache/TLB replacement policies evaluated in Figure 14."""

    LRU = "lru"
    RRIP = "rrip"
    HARDHARVEST = "hardharvest"  # the paper's Algorithm 1


@dataclass(frozen=True)
class PartitionConfig:
    """Way-partitioning of private structures (Section 4.2)."""

    enabled: bool = False
    #: Fraction of ways in the Harvest region (paper default: 50%).
    harvest_fraction: float = 0.5
    #: Eviction-candidate window M as a fraction of ways (paper: 75%).
    eviction_candidates_fraction: float = 0.75
    replacement: ReplacementKind = ReplacementKind.LRU

    def __post_init__(self) -> None:
        if not 0.0 < self.harvest_fraction < 1.0 and self.enabled:
            raise ValueError(
                f"harvest_fraction must be in (0,1), got {self.harvest_fraction}"
            )
        if not 0.0 < self.eviction_candidates_fraction <= 1.0:
            raise ValueError(
                "eviction_candidates_fraction must be in (0,1], got "
                f"{self.eviction_candidates_fraction}"
            )


# ---------------------------------------------------------------------------
# Harvesting policy costs
# ---------------------------------------------------------------------------
class HarvestTrigger(Enum):
    """When may a Primary VM core be stolen?"""

    NEVER = "never"  # NoHarvest
    ON_TERMINATION = "term"  # only when a request completes
    ON_BLOCK = "block"  # also when a request blocks on I/O


class FlushScope(Enum):
    """What is flushed/invalidated on a cross-VM core transition?"""

    NONE = "none"  # insecure; used only for motivational experiments
    FULL = "full"  # wbinvd-style: all private caches and TLBs
    HARVEST_REGION = "region"  # only the harvest ways (HardHarvest)


@dataclass(frozen=True)
class SoftwareCosts:
    """Software core-reassignment costs (Section 3 measurements)."""

    #: Hypervisor detach+attach cost (KVM: ~2.5 ms; SmartHarvest: ~150 µs).
    detach_attach_ns: int = int(2.5 * MS)
    #: Loading the new VM's context (KVM: ~2.5 ms; optimized: ~100 µs).
    context_switch_ns: int = int(2.5 * MS)
    #: Scheduling/polling delay before an idle core notices new work (mean
    #: of an exponential): OS wakeup + polling discovery under load.
    dispatch_delay_ns: int = 60 * US
    #: Software (memory-mapped) queue enqueue+dequeue overhead per request.
    queue_access_ns: int = 2 * US
    #: Software request-to-request context switch on the same core.
    request_switch_ns: int = 5 * US
    #: Mean delay before the user-space agent *notices* that a Primary VM
    #: needs a loaned core back (queue sampling granularity). HardHarvest's
    #: QM interrupt eliminates this entirely (Section 4.1.6: a software
    #: scheduler requires cores to poll memory locations).
    reclaim_detect_ns: int = 4 * MS
    #: OS load-balancing latency for an idle core to steal a request that
    #: was steered to a different core's queue.
    rebalance_ns: int = 30 * US
    #: How long after a core is harvested the software stack re-steers new
    #: arrivals away from it (RSS indirection update / guest scheduler
    #: migration). Arrivals inside this window still land on the loaned
    #: core's queue and must wait for a buffer core or a reclaim.
    resteer_ns: int = 8 * MS

    @staticmethod
    def kvm() -> "SoftwareCosts":
        return SoftwareCosts()

    @staticmethod
    def optimized() -> "SoftwareCosts":
        """SmartHarvest-optimized costs: reassignment in the 100s of µs."""
        return SoftwareCosts(
            detach_attach_ns=150 * US,
            context_switch_ns=100 * US,
            dispatch_delay_ns=60 * US,
            queue_access_ns=2 * US,
            request_switch_ns=5 * US,
            reclaim_detect_ns=4 * MS,
            rebalance_ns=30 * US,
            resteer_ns=8 * MS,
        )


@dataclass(frozen=True)
class HardwareCosts:
    """HardHarvest hardware-path costs (Section 4.1)."""

    #: Core reassignment via QMs without hardware context switching: a few µs.
    reassign_ns: int = 3 * US
    #: Reassignment with the Request Context Memory: a few tens of ns.
    reassign_hw_ctx_ns: int = 50
    #: Dequeue instruction + controller round trip over the control tree.
    queue_access_ns: int = 100
    #: QM-to-core interrupt delivery on reclamation.
    notify_ns: int = 40


@dataclass(frozen=True)
class FlushCosts:
    """Cache/TLB flush+invalidate and cold-restart costs (Section 3)."""

    #: wbinvd-style full private flush; paper: 300-500 µs. We take the middle
    #: and include the fence the paper adds for safety in simulation.
    full_flush_ns: int = 400 * US
    #: Efficient harvest-region flush (Table 1): 1000 cycles at 3 GHz.
    region_flush_cycles: int = 1000
    #: Whether the region flush happens off the critical path (background)
    #: when a Primary VM reclaims a core (Section 4.2.1).
    background_region_flush: bool = True


@dataclass(frozen=True)
class SmartHarvestConfig:
    """Prediction and safety-buffer behaviour of the software baseline [88]."""

    #: EWMA smoothing for per-VM load prediction.
    ewma_alpha: float = 0.3
    #: Idle cores kept on stand-by per server (the "emergency buffer").
    emergency_buffer_cores: int = 2
    #: Attaching a pre-flushed buffer core to a needy Primary VM: the fast
    #: path SmartHarvest keeps the buffer for (100s of µs, no flush since
    #: buffer cores are scrubbed while idle).
    buffer_attach_ns: int = 100 * US
    #: Period of the user-space monitoring agent. Tens of milliseconds in
    #: SmartHarvest-class systems — far coarser than microservice idle gaps,
    #: which is exactly why software predictions go stale at burst onsets.
    monitor_period_ns: int = 15 * MS
    #: Minimum time a core must have been idle before the software agent
    #: will lend it. Zero reproduces SmartHarvest-style eager stealing on
    #: termination/blocking (the paper measures 11-36 reassignments/s even
    #: at modest loads); the lend-fast/reclaim-slow asymmetry is what
    #: amplifies software tails during bursts.
    min_idle_ns: int = 0


# ---------------------------------------------------------------------------
# Optimization flags (Figures 12/13/15 ablation axes)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OptimizationFlags:
    """Individual HardHarvest mechanisms that can be toggled for ablations.

    ``sched``    — in-hardware request scheduler (instant notification).
    ``queue``    — dedicated SRAM request queues (vs memory-mapped).
    ``ctxtsw``   — in-hardware context switching (Request Context Memory).
    ``part``     — cache/TLB way partitioning (harvest region flush only).
    ``flush``    — efficient hardware flush, off the critical path.
    ``repl``     — the shared/private-aware replacement policy (Algorithm 1).
    """

    sched: bool = False
    queue: bool = False
    ctxtsw: bool = False
    part: bool = False
    flush: bool = False
    repl: bool = False

    @staticmethod
    def none() -> "OptimizationFlags":
        return OptimizationFlags()

    @staticmethod
    def all() -> "OptimizationFlags":
        return OptimizationFlags(True, True, True, True, True, True)


# ---------------------------------------------------------------------------
# HardHarvest controller geometry (Table 1 / Section 6.8)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ControllerConfig:
    """Hardware controller sizing: RQ chunks, QMs, VM state registers."""

    num_chunks: int = 32
    entries_per_chunk: int = 64
    num_queue_managers: int = 16
    vm_state_registers: int = 16
    register_bytes: int = 8
    #: Request status bits + payload pointer per RQ entry (Section 6.8).
    entry_status_bits: int = 2
    entry_pointer_bits: int = 64

    @property
    def total_entries(self) -> int:
        return self.num_chunks * self.entries_per_chunk


# ---------------------------------------------------------------------------
# Cluster topology (Table 1)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterConfig:
    """Servers, VMs, and network parameters."""

    num_servers: int = 8
    cores_per_server: int = 36
    primary_vms_per_server: int = 8
    cores_per_primary_vm: int = 4
    harvest_vms_per_server: int = 1
    harvest_vm_base_cores: int = 4
    #: Inter-server round trip (backend RPC latency floor): 1 µs.
    inter_server_rt_ns: int = 1 * US
    #: Intra-server 2D-mesh hop latency: 5 cycles.
    mesh_hop_cycles: int = 5

    def __post_init__(self) -> None:
        need = (
            self.primary_vms_per_server * self.cores_per_primary_vm
            + self.harvest_vms_per_server * self.harvest_vm_base_cores
        )
        if need > self.cores_per_server:
            raise ValueError(
                f"VM core demand {need} exceeds server cores {self.cores_per_server}"
            )


# ---------------------------------------------------------------------------
# Top-level system description
# ---------------------------------------------------------------------------
class SystemKind(Enum):
    """The five evaluated architectures (Section 5)."""

    NOHARVEST = "NoHarvest"
    HARVEST_TERM = "Harvest-Term"
    HARVEST_BLOCK = "Harvest-Block"
    HARDHARVEST_TERM = "HardHarvest-Term"
    HARDHARVEST_BLOCK = "HardHarvest-Block"


@dataclass(frozen=True)
class SystemConfig:
    """Everything that defines one simulated architecture.

    Presets for the five named systems (and the ablation points between
    them) are built by :mod:`repro.core.presets`.
    """

    name: str = "NoHarvest"
    trigger: HarvestTrigger = HarvestTrigger.NEVER
    #: True when request scheduling and reassignment go through the
    #: HardHarvest controller rather than the hypervisor.
    hardware_scheduling: bool = False
    flags: OptimizationFlags = field(default_factory=OptimizationFlags.none)
    flush_scope: FlushScope = FlushScope.FULL
    software_costs: SoftwareCosts = field(default_factory=SoftwareCosts.optimized)
    hardware_costs: HardwareCosts = field(default_factory=HardwareCosts)
    flush_costs: FlushCosts = field(default_factory=FlushCosts)
    smartharvest: SmartHarvestConfig = field(default_factory=SmartHarvestConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    #: Whether the Harvest VM has batch work to run (the motivational
    #: Figure 4/5 experiments use an always-idle Harvest VM).
    batch_active: bool = True
    #: Use the adaptive harvesting trigger (Section 4.1.5 future work):
    #: lend block-idled cores only when the VM's typical blocking duration
    #: is long enough to be worth a lend/reclaim cycle. Requires
    #: hardware scheduling and the ON_BLOCK trigger.
    adaptive_trigger: bool = False


@dataclass(frozen=True)
class SimulationConfig:
    """Run-scale knobs: how long, how much detail, and the seed."""

    seed: int = 2025
    #: Simulated wall-clock horizon: every Primary VM receives its own rate
    #: of arrivals over this window (open-loop, identical across systems).
    horizon_ms: float = 600.0
    #: Arrivals before this time are executed but excluded from latency
    #: statistics (cache/queue warmup).
    warmup_ms: float = 100.0
    #: Safety cap on requests per Primary VM (None = uncapped).
    requests_per_service: Optional[int] = None
    #: Memory accesses simulated per compute segment (fidelity knob).
    accesses_per_segment: int = 40
    #: Load multiplier over each service's nominal rate (1.0 = paper rates).
    load_scale: float = 1.0
    #: Record per-core L2 access traces for offline Belady replay (Fig. 14).
    record_l2_trace: bool = False
    #: Cap on recorded trace length per core.
    trace_limit: int = 200_000
    #: Which workload suite runs in the Primary VMs ("socialnet" is the
    #: paper's evaluation; "hotel" is a generalization suite).
    suite: str = "socialnet"
    #: Drive per-VM load from synthetic Alibaba utilization time series
    #: (Section 5: services run at the rates of matched production
    #: services) instead of the MMPP burst model.
    trace_driven: bool = False
    #: Interval length of the synthetic utilization trace when trace-driven.
    trace_interval_ms: float = 25.0
    #: Deterministic fault schedule injected into the run (None = fault-free).
    #: Part of the serialized experiment, hence of the result-cache key.
    faults: Optional[FaultSchedule] = None
    #: Client-side resilience policy (deadlines, retries, backoff, hedging,
    #: admission control). None = legacy open-loop clients with no timeouts.
    client: Optional[ClientPolicy] = None
    #: Observability knobs (span tracer + time-series probes). None (or
    #: ``enabled=False``) allocates nothing. Serialized with the config,
    #: hence part of the result-cache key like ``faults``/``client`` —
    #: even though telemetry never changes simulation results, a cached
    #: result carries no trace artifacts.
    telemetry: Optional[TelemetryConfig] = None
