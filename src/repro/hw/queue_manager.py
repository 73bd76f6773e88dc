"""Queue Managers (Section 4.1.2-4.1.5).

A QM owns one VM's subqueue and its VM State Register Set, knows whether its
VM is Primary or Harvest, tracks which of its bound cores are on loan to a
Harvest VM, and holds the VM's HarvestMask register (the per-structure
harvest-region way masks, Section 4.2.1).

The QM is mechanism, not policy: deciding *when* to lend or reclaim cores is
the scheduler's job (:mod:`repro.harvest.hardware`); the QM provides the
queue operations and the bookkeeping those decisions need.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.hw.request_queue import Subqueue
from repro.hw.vm_state import VmStateRegisterSet


class HarvestMaskRegister:
    """The 5-byte HarvestMask: one bit per way for each of the five private
    structures (L1D, L1I, L2, L1 TLB, L2 TLB)."""

    STRUCTURES = ("l1d", "l1i", "l2", "l1_tlb", "l2_tlb")

    def __init__(self) -> None:
        self._masks: Dict[str, int] = {s: 0 for s in self.STRUCTURES}

    def set_mask(self, structure: str, mask: int) -> None:
        if structure not in self._masks:
            raise KeyError(f"unknown structure {structure!r}")
        if mask < 0 or mask >= (1 << 16):
            raise ValueError(f"mask {mask:#x} exceeds 16 ways")
        self._masks[structure] = mask

    def get_mask(self, structure: str) -> int:
        return self._masks[structure]

    @property
    def storage_bytes(self) -> int:
        # The paper budgets 5 bytes total (Section 6.8): one byte-ish of
        # way bits per structure.
        return 5


class QueueManager:
    """One VM's hardware scheduler endpoint."""

    def __init__(
        self,
        qm_id: int,
        vm_id: int,
        is_primary: bool,
        subqueue: Subqueue,
        state_registers: VmStateRegisterSet,
    ):
        self.qm_id = qm_id
        self.vm_id = vm_id
        self.is_primary = is_primary
        self.subqueue = subqueue
        self.state_registers = state_registers
        self.harvest_mask = HarvestMaskRegister()
        #: Core ids logically bound to this VM (MyManager register points here).
        self.bound_cores: Set[int] = set()
        #: Bound cores currently on loan, executing Harvest VM work.
        self.on_loan: Set[int] = set()

    # ------------------------------------------------------------------
    # Core binding
    # ------------------------------------------------------------------
    def bind_core(self, core_id: int) -> None:
        self.bound_cores.add(core_id)

    def unbind_core(self, core_id: int) -> None:
        self.bound_cores.discard(core_id)
        self.on_loan.discard(core_id)

    def lend_core(self, core_id: int) -> None:
        if core_id not in self.bound_cores:
            raise ValueError(f"core {core_id} is not bound to VM {self.vm_id}")
        if core_id in self.on_loan:
            raise ValueError(f"core {core_id} is already on loan")
        self.on_loan.add(core_id)

    def reclaim_core(self, core_id: int) -> None:
        if core_id not in self.on_loan:
            raise ValueError(f"core {core_id} is not on loan from VM {self.vm_id}")
        self.on_loan.discard(core_id)

    # ------------------------------------------------------------------
    # Queue operations (delegate to the subqueue).  A Primary VM's queue
    # is its QM.  The subqueue is shared by all of the VM's cores, so the
    # steering arguments of the VM queue interface are accepted and
    # ignored, and no request is ever steered.
    # ------------------------------------------------------------------
    def enqueue(self, request: object) -> bool:
        return self.subqueue.enqueue(request)

    def dequeue(self, core_id=None, exclude_steered_to=None) -> Optional[object]:
        return self.subqueue.dequeue_ready()

    def has_ready(self, core_id=None, exclude_steered_to=None) -> bool:
        return self.subqueue.has_ready()

    def ready_steered_cores(self) -> List[int]:
        return []

    def ready_count(self) -> int:
        return self.subqueue.ready_count()

    def mark_blocked(self, request: object) -> None:
        self.subqueue.mark_blocked(request)

    def mark_ready(self, request: object) -> None:
        self.subqueue.mark_ready(request)

    def requeue(self, request: object) -> None:
        self.subqueue.requeue_ready(request)

    def complete(self, request: object) -> None:
        self.subqueue.complete(request)

    def discard(self, request: object) -> bool:
        return self.subqueue.discard(request)

    def drain(self) -> List[object]:
        return self.subqueue.drain()

    def pending(self) -> int:
        return self.subqueue.total_pending()

    def occupancy(self) -> Tuple[int, int]:
        return self.subqueue.occupancy()
