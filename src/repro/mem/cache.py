"""Set-associative cache and TLB arrays.

One generic :class:`SetAssocArray` implements lookup/fill/flush over
:class:`~repro.mem.replacement.CacheSet` rows; :class:`Cache` and
:class:`~repro.mem.tlb.Tlb` wrap it with line- and page-granularity address
mapping respectively.

The array supports:

* an ``allowed`` way mask per access (partitioning: Harvest VMs only touch
  harvest-region ways);
* flushing a subset of ways (``flush_ways``) for the harvest-region flush, or
  everything (``flush_all``) for the software wbinvd path;
* optional trace recording of ``(set, tag, shared)`` for offline Belady
  replay (Figure 14);
* hit/miss/eviction counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.mem.replacement import CacheSet, ReplacementPolicy


class SetAssocArray:
    """A bank of sets with a shared replacement policy.

    Sets are allocated lazily: big LLC partitions have tens of thousands of
    sets, most never touched in a given run, and empty sets behave
    identically to absent ones.
    """

    def __init__(self, name: str, num_sets: int, ways: int, policy: ReplacementPolicy):
        if num_sets <= 0:
            raise ValueError(f"{name}: num_sets must be positive, got {num_sets}")
        self.name = name
        self.num_sets = num_sets
        self.ways = ways
        self.policy = policy
        self.sets: Dict[int, CacheSet] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.trace: Optional[List[Tuple[int, int, bool]]] = None
        self._trace_limit: Optional[int] = None
        # Epoch-based lazy flushing: flush_ways() only logs the flushed mask
        # with a new epoch ({mask: epoch of its last flush}); a set
        # reconciles (drops stale entries) the next time it is touched.
        # Equivalent to eager invalidation, O(touched sets) cost. Harvest
        # flushes reuse one or two masks, so the log stays that short.
        self._flush_epoch = 0
        self._flush_log: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def enable_trace(self, limit: Optional[int] = None) -> None:
        """Start recording (set_index, tag, shared) per access for Belady.

        ``limit`` caps the trace length (None = unbounded)."""
        self.trace = []
        self._trace_limit = limit

    def access(
        self,
        set_index: int,
        tag: int,
        shared: bool,
        allowed: int,
        write: bool = False,
    ) -> bool:
        """Look up ``tag``; on miss, fill it by evicting a policy victim.

        Returns True on hit. ``allowed`` restricts both lookup and fill to a
        subset of ways. ``write=True`` marks the line dirty; evicting (or
        flushing) a dirty line counts a write-back.
        """
        cset = self.sets.get(set_index)
        if cset is None:
            if not 0 <= set_index < self.num_sets:
                raise IndexError(f"{self.name}: set {set_index} out of range")
            cset = CacheSet(self.ways)
            cset.seen_flush = self._flush_epoch
            self.sets[set_index] = cset
        elif cset.seen_flush < self._flush_epoch:
            self._reconcile(cset)
        trace = self.trace
        if trace is not None and (
            self._trace_limit is None or len(trace) < self._trace_limit
        ):
            trace.append((set_index, tag, shared))
        way = cset.find(tag, allowed)
        if way >= 0:
            self.hits += 1
            if write:
                cset.dirty_mask |= 1 << way
            self.policy.on_hit(cset, way)
            return True
        self.misses += 1
        victim = self.policy.choose_victim(cset, shared, allowed)
        if (cset.valid_mask >> victim) & 1:
            self.evictions += 1
            if (cset.dirty_mask >> victim) & 1:
                self.writebacks += 1
        cset.fill(victim, tag, shared, write)
        self.policy.on_insert(cset, victim, shared)
        return False

    def probe(self, set_index: int, tag: int, allowed: int) -> bool:
        """Check residency without updating any state or counters."""
        cset = self.sets.get(set_index)
        if cset is None:
            return False
        if cset.seen_flush < self._flush_epoch:
            self._reconcile(cset)
        return cset.find(tag, allowed) >= 0

    # ------------------------------------------------------------------
    def _reconcile(self, cset: CacheSet) -> None:
        """Apply pending way flushes to one set.

        A way is stale for a set last reconciled at epoch ``seen`` exactly
        when some mask holding it was last flushed after ``seen``.
        Flushing a dirty line is a write-back-and-invalidate (wbinvd
        semantics): the write-back is counted when the flush lands."""
        stale = cset.valid_mask
        if stale:
            seen = cset.seen_flush
            flushed = 0
            for mask, epoch in self._flush_log.items():
                if epoch > seen:
                    flushed |= mask
            stale &= flushed
        if stale:
            keep = ~stale
            cset.valid_mask &= keep
            cset.shared_mask &= keep
            dirty = cset.dirty_mask & stale
            if dirty:
                cset.dirty_mask &= keep
                self.writebacks += bin(dirty).count("1")
            tags = cset.tags
            index = cset.index
            while stale:
                low = stale & -stale
                stale ^= low
                tag = tags[low.bit_length() - 1]
                m = index[tag] & ~low
                if m:
                    index[tag] = m
                else:
                    del index[tag]
        cset.seen_flush = self._flush_epoch

    def flush_ways(self, mask: int) -> int:
        """Invalidate all entries in the ways of ``mask``.

        Lazy: logs the flush; sets reconcile on next touch. Returns the
        number of ways marked (not entries — counting entries would defeat
        the laziness)."""
        mask &= (1 << self.ways) - 1
        self._flush_epoch += 1
        self._flush_log[mask] = self._flush_epoch
        return bin(mask).count("1")

    def flush_all(self) -> int:
        return self.flush_ways((1 << self.ways) - 1)

    def settle(self) -> None:
        """Force reconciliation of every allocated set (for inspection)."""
        for cset in self.sets.values():
            if cset.seen_flush < self._flush_epoch:
                self._reconcile(cset)

    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def occupancy(self) -> int:
        """Number of valid entries across all sets."""
        self.settle()
        return sum(bin(cset.valid_mask).count("1") for cset in self.sets.values())


class Cache:
    """A cache level: maps byte addresses to (set, tag) at line granularity."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        line_bytes: int,
        round_trip_cycles: int,
        policy: ReplacementPolicy,
    ):
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by ways*line"
            )
        self.line_bytes = line_bytes
        self.round_trip_cycles = round_trip_cycles
        num_sets = size_bytes // (ways * line_bytes)
        self.array = SetAssocArray(name, num_sets, ways, policy)

    @property
    def name(self) -> str:
        return self.array.name

    def locate(self, addr: int) -> Tuple[int, int]:
        """(set_index, tag) for a byte address."""
        line = addr // self.line_bytes
        return line % self.array.num_sets, line // self.array.num_sets

    def access(self, addr: int, shared: bool, allowed: int, write: bool = False) -> bool:
        set_index, tag = self.locate(addr)
        return self.array.access(set_index, tag, shared, allowed, write)

    def probe(self, addr: int, allowed: int) -> bool:
        set_index, tag = self.locate(addr)
        return self.array.probe(set_index, tag, allowed)

    def flush_ways(self, mask: int) -> int:
        return self.array.flush_ways(mask)

    def flush_all(self) -> int:
        return self.array.flush_all()

    def hit_rate(self) -> float:
        return self.array.hit_rate()
