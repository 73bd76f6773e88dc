"""The unit of Primary VM work: one microservice request.

A request arrives as a network packet (payload deposited in the LLC via
DDIO, pointer queued at the VM's QM), executes as ``blocking_calls + 1``
compute segments separated by synchronous I/O waits, and completes when its
last segment finishes. Its demand (CPU time, blocking calls, backend times)
is drawn at generation time so every evaluated system sees the identical
workload.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mem.address import Region
from repro.sim.stats import Breakdown


class Request:
    """One microservice invocation with pre-drawn demand."""

    __slots__ = (
        "req_id",
        "vm_id",
        "service",
        "arrival_ns",
        "measured",
        "seg_cpu_ns",
        "segments_total",
        "segments_done",
        "io_durations_ns",
        "private_region",
        "breakdown",
        "ready_since_ns",
        "first_start_ns",
        "completion_ns",
        "steered_core_id",
        "context_slot",
        "failed",
        "logical_id",
        "attempt",
        "deadline_event",
    )

    def __init__(
        self,
        req_id: int,
        vm_id: int,
        service: str,
        arrival_ns: int,
        measured: bool,
        exec_ns: int,
        io_durations_ns: List[int],
        private_region: Optional[Region],
    ):
        self.req_id = req_id
        self.vm_id = vm_id
        self.service = service
        self.arrival_ns = arrival_ns
        self.measured = measured
        self.segments_total = len(io_durations_ns) + 1
        self.seg_cpu_ns = max(1, exec_ns // self.segments_total)
        self.segments_done = 0
        self.io_durations_ns = io_durations_ns
        self.private_region = private_region
        self.breakdown = Breakdown()
        self.ready_since_ns = arrival_ns
        self.first_start_ns: Optional[int] = None
        self.completion_ns: Optional[int] = None
        #: Core this request is steered to (software per-core queues);
        #: None under HardHarvest's shared per-VM subqueue.
        self.steered_core_id: Optional[int] = None
        #: Request Context Memory slot holding the register state while the
        #: request is blocked on I/O (hardware context switching).
        self.context_slot: Optional[int] = None
        #: Abandoned: killed by a fault, timed out, shed, or superseded by a
        #: winning hedge. In-flight events for a failed attempt clean up and
        #: drop their results instead of completing the request.
        self.failed = False
        #: The logical (client-visible) request this attempt serves; retries
        #: and hedges share a logical_id with the original attempt.
        self.logical_id = req_id
        #: 1 for the original attempt, 2+ for retries/hedges.
        self.attempt = 1
        #: Cancellable deadline timer armed by the client runtime.
        self.deadline_event: Optional[object] = None

    def latency_ns(self) -> int:
        if self.completion_ns is None:
            raise ValueError(f"request {self.req_id} has not completed")
        return self.completion_ns - self.arrival_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request({self.req_id}, {self.service}, vm={self.vm_id}, "
            f"seg={self.segments_done}/{self.segments_total})"
        )
