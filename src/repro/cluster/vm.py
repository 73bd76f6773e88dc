"""Virtual machines: Primary (latency-critical services) and Harvest (batch).

Primary VMs are created with a fixed core allocation and a request queue —
either a HardHarvest Queue Manager (hardware systems) or a
:class:`SoftwareQueue` with the same interface (software systems, where the
queue lives in memory and is polled).

The Harvest VM starts with its base cores and grows by harvesting. Its
batch workload is an endless stream of work units; preempted units either
re-enter the partial-unit pool (hardware context switching preserves the
vCPU state — Section 4.1.5's "the process ... is returned to the queue of
the Harvest VM vCPUs") or restart from scratch (software preemption).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.cluster.core import Core
from repro.hw.request_queue import READY, RUNNING, Subqueue
from repro.workloads.batch import BatchJobProfile
from repro.workloads.memory_profile import BatchMemory, ServiceMemory
from repro.workloads.microservices import ServiceProfile


class SoftwareQueue:
    """Memory-mapped request queues with QueueManager-compatible methods.

    Unlike HardHarvest's shared per-VM subqueue, a software stack steers
    each request to a specific core (RSS hashing onto per-vCPU queues);
    requests wait for *their* core — the head-of-line blocking that
    in-hardware request scheduling removes (Section 4.1.6), and the reason
    a harvested core's reassignment latency lands directly on the requests
    steered to it.

    Steering is read from the request's ``steered_core_id`` attribute
    (``None`` = unsteered; matches any core). Built on the same
    :class:`~repro.hw.request_queue.Subqueue` semantics (FIFO with in-place
    blocked entries) but effectively unbounded, like a queue in DRAM.
    """

    def __init__(self, vm_id: int):
        self._sq = Subqueue(vm_id, entries_per_chunk=1 << 30)
        self._sq.grant_chunk(0)

    def enqueue(self, request: object) -> bool:
        return self._sq.enqueue(request)

    def _oldest_ready(
        self, core_id: Optional[int], exclude_steered_to: Optional[set]
    ) -> int:
        """Position of the oldest READY request that ``core_id`` may take
        (any core's, if None), skipping requests steered to a core in
        ``exclude_steered_to``; -1 if there is none."""
        status = self._sq.status
        entries = self._sq.entries
        i = status.find(READY)
        while i >= 0:
            steer = entries[i].steered_core_id
            if not (exclude_steered_to and steer in exclude_steered_to) and (
                core_id is None or steer is None or steer == core_id
            ):
                return i
            i = status.find(READY, i + 1)
        return -1

    def dequeue(
        self,
        core_id: Optional[int] = None,
        exclude_steered_to: Optional[set] = None,
    ) -> Optional[object]:
        """Oldest READY request steered to ``core_id`` (or any, if None).

        ``exclude_steered_to`` skips requests stranded on those cores (used
        by the steal path: the OS will not migrate a thread pinned to a
        vCPU just because that vCPU is temporarily descheduled).
        """
        i = self._oldest_ready(core_id, exclude_steered_to)
        if i < 0:
            return None
        self._sq.status[i] = RUNNING
        return self._sq.entries[i]

    def has_ready(
        self,
        core_id: Optional[int] = None,
        exclude_steered_to: Optional[set] = None,
    ) -> bool:
        return self._oldest_ready(core_id, exclude_steered_to) >= 0

    def ready_steered_cores(self) -> List[int]:
        """Distinct steering targets of READY requests, FIFO order."""
        status = self._sq.status
        entries = self._sq.entries
        seen: List[int] = []
        i = status.find(READY)
        while i >= 0:
            steer = entries[i].steered_core_id
            if steer is not None and steer not in seen:
                seen.append(steer)
            i = status.find(READY, i + 1)
        return seen

    def ready_count(self) -> int:
        return self._sq.ready_count()

    def mark_blocked(self, request: object) -> None:
        self._sq.mark_blocked(request)

    def mark_ready(self, request: object) -> None:
        self._sq.mark_ready(request)

    def requeue(self, request: object) -> None:
        self._sq.requeue_ready(request)

    def complete(self, request: object) -> None:
        self._sq.complete(request)

    def discard(self, request: object) -> bool:
        return self._sq.discard(request)

    def drain(self) -> List[object]:
        return self._sq.drain()

    def pending(self) -> int:
        return self._sq.total_pending()

    def occupancy(self):
        return self._sq.occupancy()


class PrimaryVm:
    """A latency-critical VM running one microservice."""

    def __init__(
        self,
        vm_id: int,
        profile: ServiceProfile,
        memory: ServiceMemory,
        llc,
        queue,
    ):
        self.vm_id = vm_id
        self.profile = profile
        self.memory = memory
        self.llc = llc
        self.queue = queue
        self.cores: List[Core] = []
        #: Round-robin steering cursor (software per-core queues / RSS).
        self.rr_cursor = 0

    @property
    def name(self) -> str:
        return self.profile.name

    def loaned_cores(self) -> List[Core]:
        return [c for c in self.cores if c.on_loan]


class BatchUnit:
    """One unit of batch work; ``remaining_frac`` < 1 for resumed units.

    ``context_slot`` points at the saved register state in the Request
    Context Memory when the unit was preempted mid-flight by a hardware
    context switch (Section 4.1.4); it is restored when a core resumes
    the unit.
    """

    __slots__ = ("remaining_frac", "context_slot")

    def __init__(self, remaining_frac: float = 1.0, context_slot: Optional[int] = None):
        if not 0.0 < remaining_frac <= 1.0:
            raise ValueError(f"remaining_frac must be in (0,1], got {remaining_frac}")
        self.remaining_frac = remaining_frac
        self.context_slot = context_slot


class HarvestVm:
    """The batch VM that grows by harvesting idle Primary cores."""

    def __init__(
        self,
        vm_id: int,
        job: BatchJobProfile,
        memory: BatchMemory,
        llc,
        active: bool = True,
    ):
        self.vm_id = vm_id
        self.job = job
        self.memory = memory
        self.llc = llc
        self.active = active
        self.cores: List[Core] = []  # base cores only
        #: Preempted units whose state was preserved (hardware ctx switch).
        self.partial_units: Deque[BatchUnit] = deque()
        self.units_completed = 0.0
        self.work_lost_ns = 0
        self.preemptions = 0

    @property
    def name(self) -> str:
        return self.job.name

    def next_unit(self) -> BatchUnit:
        """Partial units first, then fresh ones (infinite backlog)."""
        if self.partial_units:
            return self.partial_units.popleft()
        return BatchUnit()

    def return_partial(
        self,
        remaining_frac: float,
        preserved: bool,
        lost_ns: int,
        context_slot: Optional[int] = None,
    ) -> None:
        """A unit was preempted; preserve or discard its progress."""
        self.preemptions += 1
        if preserved:
            if remaining_frac > 0.0:
                self.partial_units.append(
                    BatchUnit(max(1e-6, remaining_frac), context_slot)
                )
        else:
            self.work_lost_ns += lost_ns
