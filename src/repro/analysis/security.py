"""Isolation audits: verify HardHarvest's security invariants on a
completed (or paused) simulation.

The paper's security argument (Sections 2.3, 4.2.1) has three parts:

1. **Partition isolation** — a Harvest VM executing on a loaned core may
   only install state in the harvest region, so the non-harvest region can
   never carry Harvest VM residue into the Primary VM.
2. **Flush on transition** — when a core moves between VMs, the harvest
   region is invalidated, so no cross-VM lines are observable afterwards.
3. **Timing-side-channel gate** — the incoming VM may not start before the
   *worst-case* flush duration has elapsed, so the flush time leaks
   nothing about the evicted state.

These audits reconstruct the owning VM of every valid cache/TLB entry from
the modeled physical address (VM id lives in the high bits) and check the
invariants structurally. They are exercised by tests and available to
users as a debugging/verification tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.cluster.server import ServerSimulation
from repro.mem.address import _VM_SHIFT
from repro.mem.cache import SetAssocArray


@dataclass
class Violation:
    """One isolation violation found by an audit."""

    core_id: int
    structure: str
    way: int
    set_index: int
    entry_vm: int
    detail: str


@dataclass
class AuditReport:
    violations: List[Violation] = field(default_factory=list)
    entries_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations


def _entry_vm(array: SetAssocArray, set_index: int, tag: int, line_bytes: int) -> int:
    """Reconstruct the VM id of a cached entry from its tag."""
    line = tag * array.num_sets + set_index
    addr = line * line_bytes
    return addr >> _VM_SHIFT


def _audit_array(
    report: AuditReport,
    core,
    name: str,
    array: SetAssocArray,
    harvest_mask: int,
    line_bytes: int,
    primary_vm_ids,
    harvest_vm_ids,
) -> None:
    array.settle()
    for set_index, cset in array.sets.items():
        for way in range(cset.ways):
            if not (cset.valid_mask >> way) & 1:
                continue
            report.entries_checked += 1
            vm = _entry_vm(array, set_index, cset.tags[way], line_bytes)
            in_harvest = bool((harvest_mask >> way) & 1)
            # Invariant 1: Harvest VM state only ever sits in harvest ways
            # of a Primary-owned core.
            if (
                vm in harvest_vm_ids
                and core.owner_vm_id in primary_vm_ids
                and not in_harvest
            ):
                report.violations.append(
                    Violation(core.core_id, name, way, set_index, vm,
                              "Harvest VM entry in non-harvest way")
                )
            # Invariant 2: entries of *other Primary VMs* never appear
            # (cores are never shared between Primary VMs except via the
            # scrubbed buffer path).
            if vm in primary_vm_ids and vm not in (
                core.owner_vm_id,
                core.guest_vm_id if core.guest_vm_id is not None else -1,
            ):
                report.violations.append(
                    Violation(core.core_id, name, way, set_index, vm,
                              "foreign Primary VM entry resident")
                )


def audit_partition_isolation(sim: ServerSimulation) -> AuditReport:
    """Check invariants 1-2 over every private structure of every core.

    Valid for hardware-partitioned systems; software systems guarantee
    isolation by full flushes instead (audit those with
    :func:`audit_flush_on_idle`).
    """
    report = AuditReport()
    primary_ids = {vm.vm_id for vm in sim.primary_vms}
    harvest_ids = {h.vm_id for h in sim.harvest_vms}
    for core in sim.cores:
        mem = core.memory
        structures = (
            ("L1D", mem.l1d.array, mem.part_l1d.harvest, mem.l1d.line_bytes),
            ("L1I", mem.l1i.array, mem.part_l1i.harvest, mem.l1i.line_bytes),
            ("L2", mem.l2.array, mem.part_l2.harvest, mem.l2.line_bytes),
            ("L1TLB", mem.l1_tlb.array, mem.part_l1tlb.harvest, mem.l1_tlb.page_bytes),
            ("L2TLB", mem.l2_tlb.array, mem.part_l2tlb.harvest, mem.l2_tlb.page_bytes),
        )
        for name, array, mask, granule in structures:
            _audit_array(
                report, core, name, array, mask, granule, primary_ids, harvest_ids
            )
    return report


def audit_flush_on_idle(sim: ServerSimulation) -> AuditReport:
    """For software (full-flush) systems: idle, unlent cores that just
    returned from a loan must hold no Harvest VM state at all."""
    report = AuditReport()
    harvest_ids = {h.vm_id for h in sim.harvest_vms}
    for core in sim.cores:
        if core.on_loan or core.state != "idle":
            continue
        if core.owner_vm_id in harvest_ids or core.owner_vm_id < 0:
            continue
        mem = core.memory
        for name, array, granule in (
            ("L1D", mem.l1d.array, mem.l1d.line_bytes),
            ("L2", mem.l2.array, mem.l2.line_bytes),
        ):
            array.settle()
            for set_index, cset in array.sets.items():
                for way in range(cset.ways):
                    if not (cset.valid_mask >> way) & 1:
                        continue
                    report.entries_checked += 1
                    vm = _entry_vm(array, set_index, cset.tags[way], granule)
                    if vm in harvest_ids:
                        report.violations.append(
                            Violation(core.core_id, name, way, set_index, vm,
                                      "Harvest VM residue on idle core")
                        )
    return report


def audit_timing_gate(cost_model) -> bool:
    """Invariant 3: the lend-side flush wait is a constant worst-case time,
    independent of how much state is actually resident (no timing channel).

    Returns True when two memories with very different occupancy are
    charged the identical critical-path flush time.
    """
    from repro.config import HierarchyConfig, MemoryConfig
    from repro.mem.dram import DramModel
    from repro.mem.hierarchy import CoreMemory, build_llc

    cold = CoreMemory(
        cost_model.system.hierarchy, cost_model.system.partition,
        DramModel(MemoryConfig()),
    )
    warm = CoreMemory(
        cost_model.system.hierarchy, cost_model.system.partition,
        DramModel(MemoryConfig()),
    )
    llc = build_llc("audit", HierarchyConfig(), 4)
    for i in range(512):
        warm.access(i * 64, False, False, llc, True, 0)
    return cost_model.lend_cost(cold).flush_ns == cost_model.lend_cost(warm).flush_ns
