"""Tests for the per-core hierarchy: access path, partitioning, flushing."""


from repro.config import HierarchyConfig, MemoryConfig, PartitionConfig, ReplacementKind
from repro.mem.address import AddressSpace
from repro.mem.dram import DramModel
from repro.mem.hierarchy import CoreMemory, build_llc


def make_memory(partition=None, infinite=False):
    from dataclasses import replace

    hierarchy = HierarchyConfig()
    if infinite:
        hierarchy = replace(hierarchy, infinite=True)
    part = partition or PartitionConfig()
    return CoreMemory(hierarchy, part, DramModel(MemoryConfig()))


def test_first_access_misses_then_hits():
    mem = make_memory()
    llc = build_llc("llc", HierarchyConfig(), 4)
    addr = 0x1000
    cold = mem.access(addr, False, False, llc, True, 0)
    warm = mem.access(addr, False, False, llc, True, 0)
    assert cold > warm
    # Warm access: L1 TLB (2 cyc) + L1D (5 cyc) at 3 GHz ~ 2ns.
    assert warm <= 5


def test_miss_latency_increases_with_depth():
    mem = make_memory()
    llc = build_llc("llc", HierarchyConfig(), 4)
    addr = 0x2000
    first = mem.access(addr, False, False, llc, True, 0)  # DRAM fill
    assert first >= mem.hierarchy.memory.access_ns


def test_instruction_accesses_use_l1i():
    mem = make_memory()
    llc = build_llc("llc", HierarchyConfig(), 4)
    mem.access(0x3000, True, True, llc, True, 0)
    assert mem.l1i.array.accesses == 1
    assert mem.l1d.array.accesses == 0


def test_infinite_mode_constant_latency():
    mem = make_memory(infinite=True)
    lat1 = mem.access(0x1000, False, False, None, True, 0)
    lat2 = mem.access(0x9999000, False, False, None, True, 0)
    assert lat1 == lat2


def test_full_flush_forces_cold_restart():
    mem = make_memory()
    llc = build_llc("llc", HierarchyConfig(), 4)
    addr = 0x4000
    mem.access(addr, False, False, llc, True, 0)
    warm = mem.access(addr, False, False, llc, True, 0)
    mem.flush_private_full()
    cold = mem.access(addr, False, False, llc, True, 0)
    assert cold > warm
    # But the LLC still holds the line: cold restart is cheaper than DRAM.
    assert cold < mem.hierarchy.memory.access_ns


class TestPartitionedAccess:
    PART = PartitionConfig(
        enabled=True,
        harvest_fraction=0.5,
        replacement=ReplacementKind.HARDHARVEST,
    )

    def test_harvest_vm_confined_to_harvest_ways(self):
        mem = make_memory(self.PART)
        llc = build_llc("llc", HierarchyConfig(), 4)
        # Fill many conflicting lines as a Harvest VM (is_primary=False).
        space = AddressSpace(9)
        region = space.alloc(64, shared=False)
        for page in range(64):
            mem.access(region.addr(page), False, False, llc, False, 0)
        # Nothing may live in non-harvest ways of the L1D.
        mem.l1d.array.settle()
        for cset in mem.l1d.array.sets.values():
            assert cset.valid_mask & ~mem.part_l1d.harvest == 0

    def test_region_flush_preserves_non_harvest_state(self):
        mem = make_memory(self.PART)
        llc = build_llc("llc", HierarchyConfig(), 4)
        space = AddressSpace(1)
        shared = space.alloc(4, shared=True)
        addr = shared.addr(0)
        mem.access(addr, True, False, llc, True, 0)  # shared -> non-harvest
        mem.flush_harvest_region()
        warm = mem.access(addr, True, False, llc, True, 0)
        assert warm <= 5  # still an L1 hit

    def test_region_flush_clears_harvest_state(self):
        mem = make_memory(self.PART)
        llc = build_llc("llc", HierarchyConfig(), 4)
        space = AddressSpace(9)
        private = space.alloc(1, shared=False)
        addr = private.addr(0)
        mem.access(addr, False, False, llc, False, 0)  # harvest ways only
        assert mem.l1d.probe(addr, mem.part_l1d.all_ways)
        mem.flush_harvest_region()
        assert not mem.l1d.probe(addr, mem.part_l1d.all_ways)


def test_build_llc_scales_with_cores():
    llc4 = build_llc("a", HierarchyConfig(), 4)
    llc1 = build_llc("b", HierarchyConfig(), 1)
    assert llc4.array.num_sets == 4 * llc1.array.num_sets


def test_hierarchy_scaling_fig7():
    h = HierarchyConfig()
    half = h.scaled(0.5)
    assert half.l1d.ways == 6
    assert half.l2.ways == 4
    assert half.l1d.num_sets == h.l1d.num_sets  # sets constant
    assert half.l2_tlb.entries == 1024


def test_llc_size_override_fig18():
    h = HierarchyConfig().with_llc_mb_per_core(0.5)
    assert h.llc_per_core.size_bytes == 512 * 1024
    assert h.llc_per_core.ways == 16
