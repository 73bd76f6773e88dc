"""Replacement policies for set-associative caches and TLBs.

Implements the four policies compared in Figure 14 of the paper:

* :class:`LruPolicy` — vanilla least-recently-used.
* :class:`RripPolicy` — 2-bit SRRIP [37].
* :class:`HardHarvestPolicy` — the paper's Algorithm 1: steer *shared*
  entries into non-harvest ways and *private* entries into harvest ways,
  restricted to the M least-recently-used *eviction candidates* of the set,
  with LRU tie-breaking. (Belady's offline MIN lives in
  :mod:`repro.analysis.belady` since it needs the future trace.)

A policy operates on a :class:`CacheSet`, which stores per-way metadata as
parallel lists for speed. Ways may be restricted by an ``allowed`` bitmask:
when a core executes a Harvest VM under partitioning, only harvest-region
ways are accessible (Section 4.2.1).
"""

from __future__ import annotations

from typing import List


class CacheSet:
    """Per-way metadata of one cache/TLB set.

    ``tags[w]`` is the tag stored in way ``w`` (arbitrary int), ``valid[w]``
    whether it holds data, ``shared[w]`` the paper's Shared page bit.
    ``stamp[w]`` is a recency stamp maintained by the policies (higher =
    more recent); ``rrpv[w]`` is RRIP's re-reference prediction value.
    """

    __slots__ = (
        "ways", "tags", "valid", "shared", "dirty", "stamp", "rrpv",
        "clock", "seen_flush", "index", "valid_mask",
    )

    def __init__(self, ways: int):
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.ways = ways
        self.tags: List[int] = [0] * ways
        self.valid: List[bool] = [False] * ways
        self.shared: List[bool] = [False] * ways
        self.dirty: List[bool] = [False] * ways
        self.stamp: List[int] = [0] * ways
        self.rrpv: List[int] = [0] * ways
        self.clock = 0
        #: Flush epoch this set has reconciled up to (see SetAssocArray).
        self.seen_flush = 0
        #: Hashed tag store: tag -> bitmask of *valid* ways holding it.
        #: Maintained only by :meth:`fill` / :meth:`invalidate_way`; code
        #: that mutates ``tags``/``valid`` directly (tests, offline replay)
        #: must keep using the linear :meth:`find`.
        self.index: dict = {}
        #: Bitmask mirror of ``valid`` (bit w set <=> valid[w] is True),
        #: subject to the same maintenance contract as ``index``.
        self.valid_mask = 0

    def find(self, tag: int, allowed: int) -> int:
        """Way index holding ``tag`` among allowed ways, or -1.

        Linear reference scan; valid regardless of how the set was
        populated. The hot path uses :meth:`find_fast` instead.
        """
        tags = self.tags
        valid = self.valid
        for w in range(self.ways):
            if valid[w] and tags[w] == tag and (allowed >> w) & 1:
                return w
        return -1

    def find_fast(self, tag: int, allowed: int) -> int:
        """Index-backed :meth:`find`; requires fill/invalidate discipline.

        The same tag can occupy several ways (a mask-restricted miss fills
        a copy even when a disallowed way already holds the tag), so the
        index stores a way *mask*; the lowest allowed way wins, matching
        the linear scan exactly.
        """
        m = self.index.get(tag)
        if m is None:
            return -1
        m &= allowed
        if m == 0:
            return -1
        return (m & -m).bit_length() - 1

    def fill(self, way: int, tag: int, shared: bool, dirty: bool) -> None:
        """Install ``tag`` in ``way``, keeping the index/mask coherent."""
        bit = 1 << way
        index = self.index
        if self.valid_mask & bit:
            old = self.tags[way]
            m = index[old] & ~bit
            if m:
                index[old] = m
            else:
                del index[old]
        self.tags[way] = tag
        self.valid[way] = True
        self.shared[way] = shared
        self.dirty[way] = dirty
        self.valid_mask |= bit
        index[tag] = index.get(tag, 0) | bit

    def invalidate_way(self, way: int) -> bool:
        """Invalidate one way (index-coherently); True if it was valid."""
        bit = 1 << way
        if not self.valid[way]:
            # Tolerate sets populated by direct mutation: fall back to the
            # lists as ground truth and leave the (unused) index alone.
            return False
        self.valid[way] = False
        if self.valid_mask & bit:
            self.valid_mask &= ~bit
            tag = self.tags[way]
            m = self.index.get(tag, 0) & ~bit
            if m:
                self.index[tag] = m
            elif tag in self.index:
                del self.index[tag]
        return True

    def touch(self, way: int) -> None:
        """Bump the recency stamp of ``way`` (most recently used)."""
        self.clock += 1
        self.stamp[way] = self.clock


class ReplacementPolicy:
    """Interface: victim choice plus hit/insert bookkeeping."""

    name = "base"

    def on_hit(self, cset: CacheSet, way: int) -> None:
        cset.touch(way)

    def on_insert(self, cset: CacheSet, way: int, shared: bool) -> None:
        cset.touch(way)

    def choose_victim(self, cset: CacheSet, incoming_shared: bool, allowed: int) -> int:
        raise NotImplementedError

    def choose_victim_full(
        self, cset: CacheSet, incoming_shared: bool, allowed: int
    ) -> int:
        """:meth:`choose_victim` for callers that already know every allowed
        way is valid (the batched walk checks ``valid_mask`` first), so the
        invalid-way scans can be skipped.  Must return exactly what
        :meth:`choose_victim` would under that precondition."""
        return self.choose_victim(cset, incoming_shared, allowed)


def _first_invalid(cset: CacheSet, allowed: int) -> int:
    for w in range(cset.ways):
        if (allowed >> w) & 1 and not cset.valid[w]:
            return w
    return -1


def _lru_way(cset: CacheSet, allowed: int) -> int:
    best = -1
    best_stamp = None
    for w in range(cset.ways):
        if (allowed >> w) & 1:
            s = cset.stamp[w]
            if best_stamp is None or s < best_stamp:
                best_stamp = s
                best = w
    if best < 0:
        raise ValueError("no allowed ways in set (allowed mask empty)")
    return best


class LruPolicy(ReplacementPolicy):
    """Least-recently-used with invalid-first filling."""

    name = "lru"

    def choose_victim(self, cset: CacheSet, incoming_shared: bool, allowed: int) -> int:
        inv = _first_invalid(cset, allowed)
        if inv >= 0:
            return inv
        return _lru_way(cset, allowed)

    def choose_victim_full(
        self, cset: CacheSet, incoming_shared: bool, allowed: int
    ) -> int:
        return _lru_way(cset, allowed)


class RripPolicy(ReplacementPolicy):
    """2-bit Static RRIP [37]: insert at RRPV=2, promote to 0 on hit,
    evict the first way with RRPV=3 (aging all ways until one exists)."""

    name = "rrip"
    MAX_RRPV = 3

    def on_hit(self, cset: CacheSet, way: int) -> None:
        cset.touch(way)
        cset.rrpv[way] = 0

    def on_insert(self, cset: CacheSet, way: int, shared: bool) -> None:
        cset.touch(way)
        cset.rrpv[way] = self.MAX_RRPV - 1

    def choose_victim(self, cset: CacheSet, incoming_shared: bool, allowed: int) -> int:
        inv = _first_invalid(cset, allowed)
        if inv >= 0:
            return inv
        if not any((allowed >> w) & 1 for w in range(cset.ways)):
            raise ValueError("no allowed ways in set (allowed mask empty)")
        rrpv = cset.rrpv
        while True:
            for w in range(cset.ways):
                if (allowed >> w) & 1 and rrpv[w] >= self.MAX_RRPV:
                    return w
            for w in range(cset.ways):
                if (allowed >> w) & 1:
                    rrpv[w] += 1

    def choose_victim_full(
        self, cset: CacheSet, incoming_shared: bool, allowed: int
    ) -> int:
        if not any((allowed >> w) & 1 for w in range(cset.ways)):
            raise ValueError("no allowed ways in set (allowed mask empty)")
        rrpv = cset.rrpv
        while True:
            for w in range(cset.ways):
                if (allowed >> w) & 1 and rrpv[w] >= self.MAX_RRPV:
                    return w
            for w in range(cset.ways):
                if (allowed >> w) & 1:
                    rrpv[w] += 1


class HardHarvestPolicy(ReplacementPolicy):
    """The paper's Algorithm 1 with the eviction-candidate window.

    ``harvest_mask`` marks which ways form the harvest region (bit per way).
    ``candidate_fraction`` is M: only the M least-recently-used allowed ways
    are eligible victims (Section 4.2.3), protecting popular private data.
    Ties within a priority class resolve by LRU.

    Priority (incoming shared entry, Section 4.2.4):
        invalid&non-harvest > invalid > non-harvest&private > harvest&private
        > any (all-shared case, LRU).
    Priority (incoming private entry): swap the harvest/non-harvest roles.
    """

    name = "hardharvest"

    def __init__(self, harvest_mask: int, candidate_fraction: float = 0.75):
        if not 0.0 < candidate_fraction <= 1.0:
            raise ValueError(
                f"candidate_fraction must be in (0,1], got {candidate_fraction}"
            )
        self.harvest_mask = harvest_mask
        self.candidate_fraction = candidate_fraction
        #: allowed-mask -> (allowed way tuple, window size M).  A policy
        #: instance serves one array, so way counts never vary; the masks
        #: seen are the partition's two (all-ways / harvest), making this a
        #: tiny memo that removes the per-call mask decode.
        self._window_cache: dict = {}

    def _candidates(self, cset: CacheSet, allowed: int) -> List[int]:
        """The M least-recently-used allowed ways, LRU-first order."""
        cached = self._window_cache.get(allowed)
        if cached is None:
            ways = tuple(w for w in range(cset.ways) if (allowed >> w) & 1)
            if not ways:
                raise ValueError("no allowed ways in set (allowed mask empty)")
            m = max(1, int(round(len(ways) * self.candidate_fraction)))
            cached = (ways, m)
            self._window_cache[allowed] = cached
        ways, m = cached
        # sorted() is stable, so ties resolve by ascending way index exactly
        # like the reference in-place sort of the ascending-built list did.
        return sorted(ways, key=cset.stamp.__getitem__)[:m]

    def choose_victim(self, cset: CacheSet, incoming_shared: bool, allowed: int) -> int:
        harvest = self.harvest_mask
        valid = cset.valid
        shared = cset.shared

        # Empty-slot handling is not window-restricted (Algorithm 1 top half).
        empty_pref = -1
        empty_any = -1
        for w in range(cset.ways):
            if (allowed >> w) & 1 and not valid[w]:
                if empty_any < 0:
                    empty_any = w
                in_harvest = (harvest >> w) & 1
                if incoming_shared and not in_harvest:
                    empty_pref = w
                    break
                if not incoming_shared and in_harvest:
                    empty_pref = w
                    break
        if empty_pref >= 0:
            return empty_pref
        if empty_any >= 0:
            return empty_any

        # Eviction case: restrict to the M least-recently-used candidates.
        candidates = self._candidates(cset, allowed)
        if incoming_shared:
            first_region, second_region = 0, 1  # non-harvest first
        else:
            first_region, second_region = 1, 0  # harvest first
        for wanted in (first_region, second_region):
            for w in candidates:
                if ((harvest >> w) & 1) == wanted and not shared[w]:
                    return w
        # All candidate slots hold shared entries: evict the LRU candidate.
        return candidates[0]

    def choose_victim_full(
        self, cset: CacheSet, incoming_shared: bool, allowed: int
    ) -> int:
        # Algorithm 1's empty-slot top half can find nothing when every
        # allowed way is valid; go straight to the windowed eviction case.
        candidates = self._candidates(cset, allowed)
        harvest = self.harvest_mask
        shared = cset.shared
        if incoming_shared:
            regions = (0, 1)  # non-harvest first
        else:
            regions = (1, 0)  # harvest first
        for wanted in regions:
            for w in candidates:
                if ((harvest >> w) & 1) == wanted and not shared[w]:
                    return w
        return candidates[0]


def make_policy(
    kind: str,
    harvest_mask: int = 0,
    candidate_fraction: float = 0.75,
) -> ReplacementPolicy:
    """Factory keyed by :class:`repro.config.ReplacementKind` values."""
    if kind == "lru":
        return LruPolicy()
    if kind == "rrip":
        return RripPolicy()
    if kind == "hardharvest":
        return HardHarvestPolicy(harvest_mask, candidate_fraction)
    raise ValueError(f"unknown replacement policy {kind!r}")
