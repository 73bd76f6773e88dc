"""A minimal invalidation-based coherence directory.

Section 4.2.1 notes that under way-partitioning, "coherence messages such
as invalidations are still received for data in either the harvest or the
non-harvest ways, since data is not remapped." This module provides the
directory model that backs that statement: it tracks which cores hold a
copy of each line and, on a write, invalidates the other sharers'
copies — regardless of which way (harvest or non-harvest) holds them.

The engine's default configuration does not route every access through the
directory (requests are core-affine, so cross-core sharing is rare and the
hot path stays lean); the directory is provided for microarchitectural
studies and is exercised by unit tests demonstrating the paper's claim:
partitioning does NOT block coherence invalidations.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Set

from repro.mem.cache import Cache
from repro.mem.partition import full_mask


class Directory:
    """Line-granular sharer tracking over a set of per-core caches."""

    def __init__(self, line_bytes: int = 64):
        if line_bytes <= 0:
            raise ValueError(f"line_bytes must be positive, got {line_bytes}")
        self.line_bytes = line_bytes
        self._caches: Dict[int, List[Cache]] = {}
        self._sharers: Dict[int, Set[int]] = defaultdict(set)
        self.invalidations_sent = 0

    def register_core(self, core_id: int, caches: Iterable[Cache]) -> None:
        """Register the private cache levels of one core."""
        if core_id in self._caches:
            raise ValueError(f"core {core_id} already registered")
        self._caches[core_id] = list(caches)

    def _line(self, addr: int) -> int:
        return addr // self.line_bytes

    # ------------------------------------------------------------------
    def read(self, core_id: int, addr: int, shared_bit: bool, allowed: int) -> None:
        """A core reads a line: fill its caches, record it as a sharer."""
        self._require(core_id)
        for cache in self._caches[core_id]:
            cache.access(addr, shared_bit, allowed)
        self._sharers[self._line(addr)].add(core_id)

    def write(self, core_id: int, addr: int, shared_bit: bool, allowed: int) -> int:
        """A core writes a line: invalidate every other sharer's copy.

        Returns the number of invalidation messages sent. Invalidation
        reaches harvest and non-harvest ways alike — the partition mask
        restricts *allocation*, never coherence visibility.
        """
        self._require(core_id)
        line = self._line(addr)
        invalidated = 0
        for sharer in list(self._sharers[line]):
            if sharer == core_id:
                continue
            for cache in self._caches[sharer]:
                set_index, tag = cache.locate(addr)
                cset = cache.array.sets.get(set_index)
                if cset is None:
                    continue
                if cset.seen_flush < cache.array._flush_epoch:
                    cache.array._reconcile(cset)
                way = cset.find(tag, full_mask(cache.array.ways))
                if way >= 0:
                    cset.invalidate_way(way)
                    invalidated += 1
            self._sharers[line].discard(sharer)
        self.invalidations_sent += invalidated
        for cache in self._caches[core_id]:
            cache.access(addr, shared_bit, allowed, write=True)
        self._sharers[line].add(core_id)
        return invalidated

    def sharers_of(self, addr: int) -> Set[int]:
        return set(self._sharers[self._line(addr)])

    def _require(self, core_id: int) -> None:
        if core_id not in self._caches:
            raise KeyError(f"core {core_id} not registered")
