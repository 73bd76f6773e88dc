"""Golden behaviors of the per-core access path (latency ordering, policy
wiring, infinite mode, DRAM interaction), and a differential test holding
the batched walk to the per-access reference walk."""

import numpy as np
import pytest

from repro.config import (
    CacheConfig,
    HierarchyConfig,
    MemoryConfig,
    PartitionConfig,
    ReplacementKind,
    TlbConfig,
)
from repro.mem.dram import DramModel
from repro.mem.hierarchy import CoreMemory, build_llc
from repro.mem.replacement import CacheSet, HardHarvestPolicy, LruPolicy, RripPolicy
from repro.sim.units import cycles_to_ns
from repro.workloads.memory_profile import AccessBatch


@pytest.fixture()
def llc():
    return build_llc("llc", HierarchyConfig(), 4)


def make(kind=ReplacementKind.LRU, enabled=False):
    part = PartitionConfig(enabled=enabled, replacement=kind)
    return CoreMemory(HierarchyConfig(), part, DramModel(MemoryConfig()))


def test_latency_strictly_ordered_by_level(llc):
    """L1 hit < L2 hit < LLC hit < DRAM for the same address."""
    h = HierarchyConfig()
    mem = make()
    addr = 0x8000
    dram_lat = mem.access(addr, False, False, llc, True, 0)     # cold: DRAM
    l1_lat = mem.access(addr, False, False, llc, True, 0)       # L1 hit
    # Evict from L1 only: conflict addresses in the same L1 set.
    l1_sets = mem.l1d.array.num_sets
    for i in range(1, h.l1d.ways + 1):
        mem.access(addr + i * l1_sets * 64, False, False, llc, True, 0)
    l2_lat = mem.access(addr, False, False, llc, True, 0)       # L2 hit
    # Flush private caches: next access hits the (unflushed) LLC.
    mem.flush_private_full()
    llc_lat = mem.access(addr, False, False, llc, True, 0)
    assert l1_lat < l2_lat < llc_lat < dram_lat
    assert dram_lat >= MemoryConfig().access_ns


def test_policy_wiring_matches_replacement_kind():
    assert isinstance(make(ReplacementKind.LRU).l2.array.policy, LruPolicy)
    assert isinstance(make(ReplacementKind.RRIP).l2.array.policy, RripPolicy)
    hh = make(ReplacementKind.HARDHARVEST, enabled=True)
    policy = hh.l2.array.policy
    assert isinstance(policy, HardHarvestPolicy)
    assert policy.harvest_mask == hh.part_l2.harvest


def test_tlb_miss_pays_page_walk(llc):
    mem = make()
    h = HierarchyConfig()
    # Touch enough distinct pages to overflow both TLBs, then measure a
    # fresh page: the latency includes the page-walk cycles.
    walk_ns = cycles_to_ns(h.memory.page_walk_cycles, h.freq_ghz)
    lat = mem.access(0x100000, False, False, llc, True, 0)
    assert lat >= walk_ns


def test_infinite_mode_ignores_capacity(llc):
    from dataclasses import replace

    cfg = replace(HierarchyConfig(), infinite=True)
    mem = CoreMemory(cfg, PartitionConfig(), DramModel(MemoryConfig()))
    lats = {mem.access(i * 4096 * 97, False, False, llc, True, 0) for i in range(50)}
    assert len(lats) == 1  # constant latency regardless of footprint


def test_dram_counts_only_llc_misses(llc):
    mem = make()
    dram = mem.dram
    mem.access(0xA000, False, False, llc, True, 0)
    assert dram.accesses == 1
    mem.access(0xA000, False, False, llc, True, 0)
    assert dram.accesses == 1  # L1 hit: no memory traffic


def test_writes_propagate_dirty_to_l1(llc):
    mem = make()
    mem.access(0xB000, False, False, llc, True, 0, write=True)
    set_index, tag = mem.l1d.locate(0xB000)
    cset = mem.l1d.array.sets[set_index]
    way = cset.find(tag, (1 << mem.l1d.array.ways) - 1)
    assert (cset.dirty_mask >> way) & 1


def test_flush_then_llc_warm_restart_cheaper_than_dram(llc):
    mem = make()
    addr = 0xC000
    cold = mem.access(addr, False, False, llc, True, 0)
    mem.flush_private_full()
    warmish = mem.access(addr, False, False, llc, True, 0)
    assert warmish < cold  # LLC partition survived the private flush


# ---------------------------------------------------------------------------
# Differential test: batched walk vs per-access reference walk
# ---------------------------------------------------------------------------
#: Tiny geometries so a few hundred accesses evict, conflict and reach DRAM.
SMALL = HierarchyConfig(
    l1d=CacheConfig("L1D", 4 * 64 * 8, 4, 64, 5),
    l1i=CacheConfig("L1I", 4 * 64 * 4, 4, 64, 4),
    l2=CacheConfig("L2", 8 * 64 * 16, 8, 64, 13),
    llc_per_core=CacheConfig("LLC", 8 * 64 * 16, 8, 64, 36),
    l1_tlb=TlbConfig("L1TLB", 8, 4, 2),
    l2_tlb=TlbConfig("L2TLB", 32, 8, 12),
)


def _random_batch(rng, n):
    hot = rng.integers(0, 64, size=n) * 64 + rng.integers(0, 8, size=n) * 4096
    cold = rng.integers(0, 1 << 22, size=n)
    addr = np.where(rng.random(n) < 0.6, hot, cold).astype(np.int64)
    return AccessBatch(
        addr, rng.random(n) < 0.5, rng.random(n) < 0.3, rng.random(n) < 0.3
    )


def _arrays(mem, llcs):
    return [
        mem.l1_tlb.array, mem.l2_tlb.array, mem.l1i.array, mem.l1d.array,
        mem.l2.array,
    ] + [llc.array for llc in llcs]


def _array_state(arr):
    arr.settle()
    sets = {
        i: tuple(
            getattr(cset, slot) for slot in CacheSet.__slots__
        )
        for i, cset in sorted(arr.sets.items())
    }
    return (arr.hits, arr.misses, arr.evictions, arr.writebacks, arr.trace, sets)


def _run_differential(hierarchy, kind, partition, is_primary, with_llc,
                      trace_l2=False, batches=30, seed=0):
    """Drive two identical cores with the same batches and flushes, one
    through ``access_batch`` and one through per-access ``access``."""
    part = PartitionConfig(enabled=partition, replacement=kind)
    mems, llc_sets = [], []
    for _ in range(2):
        mems.append(CoreMemory(hierarchy, part, DramModel(MemoryConfig())))
        llc_sets.append(
            [build_llc(f"llc{i}", hierarchy, 2) for i in range(2)] if with_llc else []
        )
        if trace_l2:
            mems[-1].l2.array.enable_trace()
    fast, ref = mems
    rng = np.random.default_rng(seed)
    now = 0
    saturation_gap = DramModel.LINE_BYTES / MemoryConfig().bandwidth_gbps
    saturated = False
    for _ in range(batches):
        batch = _random_batch(rng, int(rng.integers(1, 400)))
        # Mostly back-to-back batches (DRAM pressure builds), sometimes a
        # long gap, sometimes time going backwards (clamped to gap 0).
        now += int(rng.choice([0, 1, 50_000, -3]))
        pick = int(rng.integers(0, 2))
        llc_fast = llc_sets[0][pick] if with_llc else None
        llc_ref = llc_sets[1][pick] if with_llc else None
        got = fast.access_batch(batch, llc_fast, is_primary, now)
        want = sum(
            ref.access(a, sh, ins, llc_ref, is_primary, now, wr)
            for a, sh, ins, wr in batch
        )
        assert got == want
        saturated |= ref.dram._avg_gap_ns < saturation_gap
        roll = rng.random()
        if roll < 0.25:
            for mem in mems:
                mem.flush_harvest_region()
        elif roll < 0.35:
            for mem in mems:
                mem.flush_private_full()
    for a_fast, a_ref in zip(_arrays(fast, llc_sets[0]), _arrays(ref, llc_sets[1])):
        assert _array_state(a_fast) == _array_state(a_ref), a_fast.name
    dram_state = [
        (m.dram.accesses, m.dram._avg_gap_ns, m.dram._last_access_ns) for m in mems
    ]
    assert dram_state[0] == dram_state[1]
    return fast, saturated


@pytest.mark.parametrize("with_llc", [True, False], ids=["llc", "no-llc"])
@pytest.mark.parametrize("is_primary", [True, False], ids=["primary", "harvest"])
@pytest.mark.parametrize("partition", [True, False], ids=["part", "nopart"])
@pytest.mark.parametrize(
    "kind",
    [ReplacementKind.LRU, ReplacementKind.RRIP, ReplacementKind.HARDHARVEST],
    ids=lambda k: k.value,
)
def test_access_batch_matches_per_access_walk(kind, partition, is_primary, with_llc):
    fast, saturated = _run_differential(SMALL, kind, partition, is_primary, with_llc)
    assert fast.l1d.array.writebacks > 0
    assert saturated  # the DRAM pressure branch was exercised


@pytest.mark.parametrize("level", ["l2", "llc_per_core"])
def test_access_batch_fallback_non_power_of_two_sets(level):
    from dataclasses import replace

    h = replace(SMALL, **{level: CacheConfig(level, 8 * 64 * 12, 8, 64, 13)})
    fast, _ = _run_differential(h, ReplacementKind.RRIP, True, False, True)
    assert getattr(h, level).num_sets == 12


def test_access_batch_fallback_l2_trace():
    fast, _ = _run_differential(
        SMALL, ReplacementKind.HARDHARVEST, True, True, True, trace_l2=True
    )
    assert fast.l2.array.trace
