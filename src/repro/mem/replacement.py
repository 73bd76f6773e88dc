"""Replacement policies for set-associative caches and TLBs.

Implements the four policies compared in Figure 14 of the paper:

* :class:`LruPolicy` — vanilla least-recently-used.
* :class:`RripPolicy` — 2-bit SRRIP [37].
* :class:`HardHarvestPolicy` — the paper's Algorithm 1: steer *shared*
  entries into non-harvest ways and *private* entries into harvest ways,
  restricted to the M least-recently-used *eviction candidates* of the set,
  with LRU tie-breaking. (Belady's offline MIN lives in
  :mod:`repro.analysis.belady` since it needs the future trace.)

A policy operates on a :class:`CacheSet`, which keeps the per-way
valid, Shared and dirty bits as bitmasks and the tags, recency stamps and
RRPVs in containers the cyclic garbage collector does not track. Ways may
be restricted by an ``allowed`` bitmask: when a core executes a Harvest VM
under partitioning, only harvest-region ways are accessible (Section 4.2.1).
"""

from __future__ import annotations

from typing import List


class CacheSet:
    """Per-way metadata of one cache/TLB set.

    Bit ``w`` of ``valid_mask`` says whether way ``w`` holds data, of
    ``shared_mask`` whether it holds the paper's Shared page bit, of
    ``dirty_mask`` whether it must be written back; Shared and dirty bits
    are only ever set on valid ways. ``tags[w]`` is the tag stored in way
    ``w`` (arbitrary int), ``stamp[w]`` its recency stamp maintained by the
    policies (higher = more recent) and ``rrpv[w]`` RRIP's re-reference
    prediction value.

    A cold run builds a set for almost every access, so the set itself is
    the only object of its state the cyclic GC tracks: ints and a
    ``bytearray`` are not GC types, and a dict holding only ints stays
    untracked. ``tags`` and ``stamp`` are therefore dicts filled on first
    write: every writer goes through :meth:`fill` and the policy's
    ``on_insert``, and nothing reads a way's tag or stamp before the way
    has been valid.
    """

    __slots__ = (
        "ways", "tags", "valid_mask", "shared_mask", "dirty_mask", "stamp",
        "rrpv", "clock", "seen_flush", "index",
    )

    def __init__(self, ways: int):
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.ways = ways
        self.tags: dict = {}
        self.valid_mask = 0
        self.shared_mask = 0
        self.dirty_mask = 0
        self.stamp: dict = {}
        self.rrpv = bytearray(ways)
        self.clock = 0
        #: Flush epoch this set has reconciled up to (see SetAssocArray).
        self.seen_flush = 0
        #: Hashed tag store: tag -> bitmask of *valid* ways holding it.
        self.index: dict = {}

    def find(self, tag: int, allowed: int) -> int:
        """Way index holding ``tag`` among allowed ways, or -1.

        The same tag can occupy several ways (a mask-restricted miss fills
        a copy even when a disallowed way already holds the tag), so the
        index stores a way *mask*; the lowest allowed way wins.
        """
        m = self.index.get(tag, 0) & allowed
        # (0).bit_length() - 1 == -1: no allowed way holds the tag.
        return (m & -m).bit_length() - 1

    def fill(self, way: int, tag: int, shared: bool, dirty: bool) -> None:
        """Install ``tag`` in ``way``, keeping the index and masks coherent."""
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
        self.valid_mask |= bit
        if shared:
            self.shared_mask |= bit
        else:
            self.shared_mask &= ~bit
        if dirty:
            self.dirty_mask |= bit
        else:
            self.dirty_mask &= ~bit
        index[tag] = index.get(tag, 0) | bit

    def invalidate_way(self, way: int) -> bool:
        """Invalidate one way, dropping its Shared and dirty bits with it;
        True if it was valid."""
        bit = 1 << way
        if not self.valid_mask & bit:
            return False
        keep = ~bit
        self.valid_mask &= keep
        self.shared_mask &= keep
        self.dirty_mask &= keep
        tag = self.tags[way]
        m = self.index[tag] & keep
        if m:
            self.index[tag] = m
        else:
            del self.index[tag]
        return True

    def touch(self, way: int) -> None:
        """Bump the recency stamp of ``way`` (most recently used)."""
        self.clock += 1
        self.stamp[way] = self.clock


class ReplacementPolicy:
    """Interface: victim choice plus hit/insert bookkeeping.

    A policy implements :meth:`choose_victim_full`; :meth:`choose_victim`
    fills an empty allowed way first and only asks it when there is none.
    """

    name = "base"

    def on_hit(self, cset: CacheSet, way: int) -> None:
        cset.touch(way)

    def on_insert(self, cset: CacheSet, way: int, shared: bool) -> None:
        cset.touch(way)

    def choose_victim(self, cset: CacheSet, incoming_shared: bool, allowed: int) -> int:
        """The lowest empty allowed way, else :meth:`choose_victim_full`."""
        empty = allowed & ~cset.valid_mask & ((1 << cset.ways) - 1)
        if empty:
            return (empty & -empty).bit_length() - 1
        return self.choose_victim_full(cset, incoming_shared, allowed)

    def choose_victim_full(
        self, cset: CacheSet, incoming_shared: bool, allowed: int
    ) -> int:
        """The victim when every allowed way is valid (the batched walk
        checks ``valid_mask`` itself and calls this directly)."""
        raise NotImplementedError


class LruPolicy(ReplacementPolicy):
    """Least-recently-used with invalid-first filling."""

    name = "lru"

    def choose_victim_full(
        self, cset: CacheSet, incoming_shared: bool, allowed: int
    ) -> int:
        stamp = cset.stamp
        best = -1
        best_stamp = None
        for w in range(cset.ways):
            if (allowed >> w) & 1:
                s = stamp[w]
                if best_stamp is None or s < best_stamp:
                    best_stamp = s
                    best = w
        if best < 0:
            raise ValueError("no allowed ways in set (allowed mask empty)")
        return best


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
        # sorted() is stable, so ties resolve by ascending way index.
        return sorted(ways, key=cset.stamp.__getitem__)[:m]

    def choose_victim(self, cset: CacheSet, incoming_shared: bool, allowed: int) -> int:
        # Empty-slot handling is not window-restricted (Algorithm 1 top
        # half): the lowest empty way of the incoming entry's region, else
        # the lowest empty way.
        empty = allowed & ~cset.valid_mask & ((1 << cset.ways) - 1)
        if empty:
            harvest = self.harvest_mask
            pref = empty & ~harvest if incoming_shared else empty & harvest
            if pref:
                empty = pref
            return (empty & -empty).bit_length() - 1
        return self.choose_victim_full(cset, incoming_shared, allowed)

    def choose_victim_full(
        self, cset: CacheSet, incoming_shared: bool, allowed: int
    ) -> int:
        # Eviction case: restrict to the M least-recently-used candidates.
        candidates = self._candidates(cset, allowed)
        harvest = self.harvest_mask
        shared = cset.shared_mask
        if incoming_shared:
            regions = (0, 1)  # non-harvest first
        else:
            regions = (1, 0)  # harvest first
        for wanted in regions:
            for w in candidates:
                if ((harvest >> w) & 1) == wanted and not (shared >> w) & 1:
                    return w
        # All candidate slots hold shared entries: evict the LRU candidate.
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
