"""Per-core memory hierarchy: L1I/L1D/L2 caches, L1/L2 TLBs, and the access
path through them to the per-VM LLC partition and DRAM.

This is the structure HardHarvest partitions. Each private structure carries
a :class:`~repro.mem.partition.WayPartition`; a Primary VM sees all ways, a
Harvest VM only the harvest region (Section 4.2.1). Flushing either the full
private state (software wbinvd path) or just the harvest region (HardHarvest)
operates directly on the arrays, so cold-restart misses emerge naturally.
"""

from __future__ import annotations

from typing import Optional

from repro.config import HierarchyConfig, PartitionConfig, ReplacementKind
from repro.mem.cache import Cache, SetAssocArray
from repro.mem.dram import DramModel
from repro.mem.partition import WayPartition, full_mask
from repro.mem.replacement import (
    CacheSet,
    HardHarvestPolicy,
    LruPolicy,
    ReplacementPolicy,
    RripPolicy,
)
from repro.mem.tlb import Tlb
from repro.sim.units import cycles_to_ns


def _policy_for(
    kind: ReplacementKind, partition: WayPartition, candidate_fraction: float
) -> ReplacementPolicy:
    if kind is ReplacementKind.LRU:
        return LruPolicy()
    if kind is ReplacementKind.RRIP:
        return RripPolicy()
    if kind is ReplacementKind.HARDHARVEST:
        return HardHarvestPolicy(partition.harvest, candidate_fraction)
    raise ValueError(f"unknown replacement kind {kind}")


def build_llc(name: str, hierarchy: HierarchyConfig, num_cores: int) -> Cache:
    """Build a per-VM LLC partition sized for ``num_cores`` CAT shares.

    The LLC is partitioned per VM with CAT and never flushed (Section 2.3),
    so each VM simply owns a proportional slice, modeled as its own cache.
    """
    base = hierarchy.llc_per_core
    size = base.size_bytes * max(1, num_cores)
    return Cache(name, size, base.ways, base.line_bytes, base.round_trip_cycles, LruPolicy())


def _walk_step(arr: SetAssocArray, granularity_bytes: int):
    """One level of :meth:`CoreMemory.access_batch`, or None when the
    level's geometry is not a power of two (shift/mask decoding would
    diverge from ``//``/``%``).

    ``step(addr, shared, write, allowed)`` does what ``arr.access`` does
    for the address's (set, tag) and returns True on a hit, without the
    ``Cache``/``Tlb`` frames: shift/mask decode, lazy set creation, stale-
    way reconcile, hashed hit, an empty way picked by bitmask (with
    Algorithm 1's harvest preference) or else ``choose_victim_full``,
    eviction and write-back counting, then the fill.
    """
    nsets = arr.num_sets
    gb = granularity_bytes
    if gb & (gb - 1) or nsets & (nsets - 1):
        return None
    gsh = gb.bit_length() - 1
    smask = nsets - 1
    tsh = gsh + smask.bit_length()
    sets = arr.sets
    ways = arr.ways
    reconcile = arr._reconcile
    pol = arr.policy
    victim_full = pol.choose_victim_full
    on_hit = pol.on_hit
    on_insert = pol.on_insert
    # Base-policy levels (the recency bump of ReplacementPolicy's own
    # on_hit/on_insert) bump the stamp inline instead of calling.
    simple = (
        type(pol).on_hit is ReplacementPolicy.on_hit
        and type(pol).on_insert is ReplacementPolicy.on_insert
    )
    harvest = pol.harvest_mask if isinstance(pol, HardHarvestPolicy) else None

    def step(addr: int, sh: bool, wr: bool, allowed: int) -> bool:
        si = (addr >> gsh) & smask
        tag = addr >> tsh
        cset = sets.get(si)
        if cset is None:
            cset = sets[si] = CacheSet(ways)
            cset.seen_flush = arr._flush_epoch
        elif cset.seen_flush < arr._flush_epoch:
            reconcile(cset)
        index = cset.index
        mf = index.get(tag)
        m = mf and mf & allowed
        if m:
            low = m & -m
            w = low.bit_length() - 1
            arr.hits += 1
            if wr:
                cset.dirty_mask |= low
            if simple:
                c = cset.clock + 1
                cset.clock = c
                cset.stamp[w] = c
            else:
                on_hit(cset, w)
            return True
        arr.misses += 1
        valid = cset.valid_mask
        empty = allowed & ~valid
        if empty:
            if harvest is not None:
                pref = (empty & ~harvest) if sh else (empty & harvest)
                if pref:
                    empty = pref
            victim = (empty & -empty).bit_length() - 1
        else:
            victim = victim_full(cset, sh, allowed)
        vbit = 1 << victim
        if valid & vbit:
            # Evict: drop the old line's index entry, Shared and dirty bits.
            arr.evictions += 1
            keep = ~vbit
            dirty = cset.dirty_mask
            if dirty & vbit:
                arr.writebacks += 1
                cset.dirty_mask = dirty & keep
            cset.shared_mask &= keep
            otag = cset.tags[victim]
            old = index[otag] & keep
            if old:
                index[otag] = old
            else:
                del index[otag]
        else:
            cset.valid_mask = valid | vbit
        cset.tags[victim] = tag
        if sh:
            cset.shared_mask |= vbit
        if wr:
            cset.dirty_mask |= vbit
        index[tag] = mf | vbit if mf else vbit
        if simple:
            c = cset.clock + 1
            cset.clock = c
            cset.stamp[victim] = c
        else:
            on_insert(cset, victim, sh)
        return False

    return step


class CoreMemory:
    """The private caches and TLBs of one core, plus its access path."""

    def __init__(
        self,
        hierarchy: HierarchyConfig,
        partition_cfg: PartitionConfig,
        dram: DramModel,
    ):
        self.hierarchy = hierarchy
        self.partition_cfg = partition_cfg
        self.dram = dram
        h = hierarchy

        def make_partition(ways: int) -> WayPartition:
            if partition_cfg.enabled:
                return WayPartition.split(ways, partition_cfg.harvest_fraction)
            return WayPartition.unpartitioned(ways)

        self.part_l1d = make_partition(h.l1d.ways)
        self.part_l1i = make_partition(h.l1i.ways)
        self.part_l2 = make_partition(h.l2.ways)
        self.part_l1tlb = make_partition(h.l1_tlb.ways)
        self.part_l2tlb = make_partition(h.l2_tlb.ways)

        cf = partition_cfg.eviction_candidates_fraction
        kind = partition_cfg.replacement

        def cache(cfg, part: WayPartition) -> Cache:
            return Cache(
                cfg.name,
                cfg.size_bytes,
                cfg.ways,
                cfg.line_bytes,
                cfg.round_trip_cycles,
                _policy_for(kind, part, cf),
            )

        self.l1d = cache(h.l1d, self.part_l1d)
        self.l1i = cache(h.l1i, self.part_l1i)
        self.l2 = cache(h.l2, self.part_l2)
        self.l1_tlb = Tlb(
            h.l1_tlb.name,
            h.l1_tlb.entries,
            h.l1_tlb.ways,
            h.l1_tlb.round_trip_cycles,
            _policy_for(kind, self.part_l1tlb, cf),
            h.l1_tlb.page_bytes,
        )
        self.l2_tlb = Tlb(
            h.l2_tlb.name,
            h.l2_tlb.entries,
            h.l2_tlb.ways,
            h.l2_tlb.round_trip_cycles,
            _policy_for(kind, self.part_l2tlb, cf),
            h.l2_tlb.page_bytes,
        )
        # Modeling switch: "infinite caches" baseline for Figure 7.
        self.infinite = hierarchy.infinite

        # Way masks are immutable once the partitions exist; resolving the
        # properties per access is pure overhead on the hot path, so the
        # batched walk (access_batch) uses these precomputed tuples, ordered
        # (l1_tlb, l2_tlb, l1i, l1d, l2).
        self._masks_all = (
            self.part_l1tlb.all_ways,
            self.part_l2tlb.all_ways,
            self.part_l1i.all_ways,
            self.part_l1d.all_ways,
            self.part_l2.all_ways,
        )
        self._masks_harvest = (
            self.part_l1tlb.harvest,
            self.part_l2tlb.harvest,
            self.part_l1i.harvest,
            self.part_l1d.harvest,
            self.part_l2.harvest,
        )
        #: LLC partition (or None) -> its walk plan; see _walk_plan.
        self._walks: dict = {}

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def access(
        self,
        addr: int,
        shared: bool,
        instruction: bool,
        llc: Optional[Cache],
        is_primary: bool,
        now_ns: int,
        write: bool = False,
    ) -> int:
        """One memory reference; returns its latency in nanoseconds.

        ``llc`` is the executing VM's LLC partition (None = modeled as hit
        in DRAM directly, used by microbenchmarks). ``is_primary`` selects
        the way mask: Harvest VMs are confined to the harvest region.
        ``write`` marks the filled/hit L1 line dirty (write-back caches).
        """
        h = self.hierarchy
        if self.infinite:
            # Everything hits in L1: the Figure 7 "Inf" configuration.
            l1 = self.l1i if instruction else self.l1d
            return cycles_to_ns(
                h.l1_tlb.round_trip_cycles + l1.round_trip_cycles, h.freq_ghz
            )

        if is_primary or not self.partition_cfg.enabled:
            m_l1tlb = self.part_l1tlb.all_ways
            m_l2tlb = self.part_l2tlb.all_ways
            m_l1 = self.part_l1i.all_ways if instruction else self.part_l1d.all_ways
            m_l2 = self.part_l2.all_ways
        else:
            m_l1tlb = self.part_l1tlb.harvest
            m_l2tlb = self.part_l2tlb.harvest
            m_l1 = self.part_l1i.harvest if instruction else self.part_l1d.harvest
            m_l2 = self.part_l2.harvest

        cycles = 0
        # Translation.
        if self.l1_tlb.access(addr, shared, m_l1tlb):
            cycles += h.l1_tlb.round_trip_cycles
        elif self.l2_tlb.access(addr, shared, m_l2tlb):
            cycles += h.l2_tlb.round_trip_cycles
        else:
            # Page walk; the L2 TLB access above already filled the entry.
            cycles += h.memory.page_walk_cycles

        # Data/instruction path.
        l1 = self.l1i if instruction else self.l1d
        if l1.access(addr, shared, m_l1, write):
            cycles += l1.round_trip_cycles
            return cycles_to_ns(cycles, h.freq_ghz)
        if self.l2.access(addr, shared, m_l2):
            cycles += self.l2.round_trip_cycles
            return cycles_to_ns(cycles, h.freq_ghz)
        if llc is not None and llc.access(addr, shared, full_mask(llc.array.ways)):
            cycles += llc.round_trip_cycles
            return cycles_to_ns(cycles, h.freq_ghz)
        return cycles_to_ns(cycles, h.freq_ghz) + self.dram.access_latency(now_ns)

    # ------------------------------------------------------------------
    # Batched access path (the fast path)
    # ------------------------------------------------------------------
    def _lat_table(self, round_trip_cycles: int):
        """ns latency of a level by translation outcome (0/1/2 = L1-TLB
        hit / L2-TLB hit / page walk).

        The per-access ``int(round(cycles / freq))`` of the reference walk
        is reproduced exactly because the same integer cycle sums go
        through the same expression here, just once instead of per access.
        """
        h = self.hierarchy
        freq = h.freq_ghz
        rt = round_trip_cycles
        return (
            int(round((h.l1_tlb.round_trip_cycles + rt) / freq)),
            int(round((h.l2_tlb.round_trip_cycles + rt) / freq)),
            int(round((h.memory.page_walk_cycles + rt) / freq)),
        )

    def _walk_plan(self, llc: Optional[Cache]):
        """The batched walk through this core and ``llc`` (None: no LLC):
        the steps of the L1-TLB, L2-TLB, L1I, L1D, L2 and LLC, the latency
        tables of L1I, L1D, L2, LLC and DRAM, the LLC's way mask, and every
        level's array.  A core's plans share its private levels' steps.
        False when some level's geometry is not a power of two."""
        if llc is None:
            caches = (self.l1i, self.l1d, self.l2)
            levels = [(t.array, t.page_bytes) for t in (self.l1_tlb, self.l2_tlb)]
            levels += [(c.array, c.line_bytes) for c in caches]
            steps = [_walk_step(arr, gb) for arr, gb in levels]
            if None in steps:
                return False
            lats = [self._lat_table(c.round_trip_cycles) for c in caches]
            return (*steps, None, *lats, None, self._lat_table(0), 0,
                    tuple(arr for arr, _ in levels))
        base = self._walks.get(None)
        if base is None:
            base = self._walks[None] = self._walk_plan(None)
        step = _walk_step(llc.array, llc.line_bytes)
        if not base or step is None:
            return False
        t1, t2, li, ld, l2, _, lat_i, lat_d, lat_2, _, lat_m, _, arrays = base
        return (
            t1, t2, li, ld, l2, step, lat_i, lat_d, lat_2,
            self._lat_table(llc.round_trip_cycles), lat_m,
            full_mask(llc.array.ways), arrays + (llc.array,),
        )

    def access_batch(self, batch, llc: Optional[Cache], is_primary: bool, now_ns: int) -> int:
        """Walk a whole :class:`~repro.workloads.memory_profile.AccessBatch`
        through the hierarchy; returns the summed latency in nanoseconds.

        Bit-identical to calling :meth:`access` once per element in batch
        order — same state transitions, same counters, same per-access
        integer-ns rounding — but each level is one :func:`_walk_step`
        closure built once per core and LLC partition, instead of a
        ``Cache``/``Tlb``/``SetAssocArray`` call chain, and the per-access
        cycle->ns conversions come from a table of the (few) possible cycle
        totals.  ``tests/test_access_path.py`` and the parity suite
        (``tests/test_hotpath_parity.py``) pin this contract.
        """
        n = len(batch)
        if n == 0:
            return 0

        if self.infinite:
            # Everything hits in L1: the Figure 7 "Inf" configuration.
            h = self.hierarchy
            freq = h.freq_ghz
            tlb_rt = h.l1_tlb.round_trip_cycles
            ns_i = int(round((tlb_rt + self.l1i.round_trip_cycles) / freq))
            ns_d = int(round((tlb_rt + self.l1d.round_trip_cycles) / freq))
            instrs = batch.instr.tolist()
            n_instr = sum(instrs)
            return n_instr * ns_i + (n - n_instr) * ns_d

        plan = self._walks.get(llc)
        if plan is None:
            plan = self._walks[llc] = self._walk_plan(llc)
        if plan:
            for arr in plan[-1]:
                if arr.trace is not None:
                    plan = False
                    break
        if not plan:
            # Belady trace recording (per-level appends) and non-power-of-2
            # geometries: not worth specializing, use the reference walk.
            acc = self.access
            total = 0
            for addr, sh, instr, wr in batch:
                total += acc(addr, sh, instr, llc, is_primary, now_ns, wr)
            return total
        t1, t2, li, ld, l2, ll, lat_i, lat_d, lat_2, lat_l, lat_m, m_l, _ = plan
        if is_primary or not self.partition_cfg.enabled:
            m_t1, m_t2, m_i, m_d, m_2 = self._masks_all
        else:
            m_t1, m_t2, m_i, m_d, m_2 = self._masks_harvest

        total = dram = 0
        for addr, sh, ins, wr in zip(
            batch.addr.tolist(), batch.shared.tolist(),
            batch.instr.tolist(), batch.write.tolist(),
        ):
            if t1(addr, sh, False, m_t1):
                t = 0
            elif t2(addr, sh, False, m_t2):
                t = 1
            else:
                t = 2  # page walk; the L2-TLB step already filled the entry
            if ins:
                if li(addr, sh, wr, m_i):
                    total += lat_i[t]
                    continue
            elif ld(addr, sh, wr, m_d):
                total += lat_d[t]
                continue
            if l2(addr, sh, False, m_2):
                total += lat_2[t]
            elif ll is not None and ll(addr, sh, False, m_l):
                total += lat_l[t]
            else:
                total += lat_m[t]
                dram += 1
        # All of a batch's DRAM fills are issued at now_ns, in walk order.
        if dram:
            total += self.dram.burst_latency(now_ns, dram)
        return total

    # ------------------------------------------------------------------
    # Flush operations
    # ------------------------------------------------------------------
    def flush_private_full(self) -> int:
        """wbinvd path: invalidate all private caches and TLBs."""
        n = self.l1d.flush_all()
        n += self.l1i.flush_all()
        n += self.l2.flush_all()
        n += self.l1_tlb.flush_all()
        n += self.l2_tlb.flush_all()
        return n

    def flush_harvest_region(self) -> int:
        """HardHarvest path: invalidate only harvest-region ways."""
        n = self.l1d.flush_ways(self.part_l1d.harvest)
        n += self.l1i.flush_ways(self.part_l1i.harvest)
        n += self.l2.flush_ways(self.part_l2.harvest)
        n += self.l1_tlb.flush_ways(self.part_l1tlb.harvest)
        n += self.l2_tlb.flush_ways(self.part_l2tlb.harvest)
        return n

    # ------------------------------------------------------------------
    def l2_hit_rate(self) -> float:
        return self.l2.hit_rate()
