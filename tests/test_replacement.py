"""Unit tests for replacement policies, including the paper's Algorithm 1."""

import pytest

from repro.mem.replacement import (
    CacheSet,
    HardHarvestPolicy,
    LruPolicy,
    RripPolicy,
    make_policy,
)


def fill(cset, entries):
    """entries: list of (tag, shared). Fills ways 0..n-1, ascending recency."""
    for way, (tag, shared) in enumerate(entries):
        cset.fill(way, tag, shared, False)
        cset.touch(way)


ALL4 = 0b1111


class TestLru:
    def test_invalid_first(self):
        cset = CacheSet(4)
        fill(cset, [(1, False), (2, False)])
        cset.invalidate_way(1)
        assert LruPolicy().choose_victim(cset, False, ALL4) == 1

    def test_evicts_least_recent(self):
        cset = CacheSet(4)
        fill(cset, [(1, False), (2, False), (3, False), (4, False)])
        policy = LruPolicy()
        policy.on_hit(cset, 0)  # way 0 becomes MRU
        assert policy.choose_victim(cset, False, ALL4) == 1

    def test_respects_allowed_mask(self):
        cset = CacheSet(4)
        fill(cset, [(1, False), (2, False), (3, False), (4, False)])
        # Only ways 2,3 allowed; way 2 is older.
        assert LruPolicy().choose_victim(cset, False, 0b1100) == 2

    def test_empty_mask_raises(self):
        cset = CacheSet(4)
        with pytest.raises(ValueError):
            LruPolicy().choose_victim(cset, False, 0)


class TestRrip:
    def test_insert_then_age_to_eviction(self):
        cset = CacheSet(2)
        policy = RripPolicy()
        for way, tag in enumerate((1, 2)):
            cset.fill(way, tag, False, False)
            policy.on_insert(cset, way, False)
        # Both at RRPV=2; aging makes way 0 the first to reach 3.
        victim = policy.choose_victim(cset, False, 0b11)
        assert victim == 0

    def test_hit_promotes(self):
        cset = CacheSet(2)
        policy = RripPolicy()
        for way, tag in enumerate((1, 2)):
            cset.fill(way, tag, False, False)
            policy.on_insert(cset, way, False)
        policy.on_hit(cset, 0)  # rrpv[0] = 0
        assert policy.choose_victim(cset, False, 0b11) == 1


class TestHardHarvestAlgorithm1:
    """The cases of Algorithm 1, ways 0-1 = harvest region, 2-3 = non-harvest."""

    HARVEST = 0b0011

    def make(self, candidates=1.0):
        return HardHarvestPolicy(self.HARVEST, candidates)

    def test_empty_slots_shared_prefers_non_harvest(self):
        cset = CacheSet(4)  # all invalid
        assert self.make().choose_victim(cset, True, ALL4) in (2, 3)

    def test_empty_slots_private_prefers_harvest(self):
        cset = CacheSet(4)
        assert self.make().choose_victim(cset, False, ALL4) in (0, 1)

    def test_empty_only_in_wrong_region_still_used(self):
        cset = CacheSet(4)
        fill(cset, [(1, False), (2, False)])  # harvest ways full
        # Private incoming, harvest full, non-harvest empty: take empty.
        assert self.make().choose_victim(cset, False, ALL4) in (2, 3)

    def test_full_set_shared_evicts_private_in_non_harvest_first(self):
        cset = CacheSet(4)
        fill(cset, [(1, True), (2, False), (3, False), (4, True)])
        # Non-harvest ways: 2 (private), 3 (shared). Shared incoming ->
        # evict the private entry in non-harvest (way 2).
        assert self.make().choose_victim(cset, True, ALL4) == 2

    def test_full_set_shared_falls_back_to_private_in_harvest(self):
        cset = CacheSet(4)
        fill(cset, [(1, True), (2, False), (3, True), (4, True)])
        # Non-harvest all shared; harvest way 1 private.
        assert self.make().choose_victim(cset, True, ALL4) == 1

    def test_full_set_private_evicts_private_in_harvest_first(self):
        cset = CacheSet(4)
        fill(cset, [(1, True), (2, False), (3, False), (4, True)])
        # Harvest ways: 0 shared, 1 private. Private incoming -> way 1.
        assert self.make().choose_victim(cset, False, ALL4) == 1

    def test_full_set_private_falls_back_to_non_harvest_private(self):
        cset = CacheSet(4)
        fill(cset, [(1, True), (2, True), (3, False), (4, True)])
        assert self.make().choose_victim(cset, False, ALL4) == 2

    def test_all_shared_falls_back_to_lru(self):
        cset = CacheSet(4)
        fill(cset, [(1, True), (2, True), (3, True), (4, True)])
        policy = self.make()
        assert policy.choose_victim(cset, True, ALL4) == 0  # LRU
        cset.touch(0)
        assert policy.choose_victim(cset, True, ALL4) == 1

    def test_eviction_candidate_window_protects_mru_private(self):
        """With M=50%, only the 2 LRU ways are candidates: a recently-used
        private entry escapes eviction even though Algorithm 1 would
        otherwise target it."""
        cset = CacheSet(4)
        fill(cset, [(1, True), (2, True), (3, True), (4, False)])
        # way 3 is private but MRU; window = 2 LRU ways = {0, 1}, all shared
        # -> LRU of candidates (way 0), not the private way 3.
        policy = self.make(candidates=0.5)
        assert policy.choose_victim(cset, True, ALL4) == 0

    def test_window_full_still_finds_private(self):
        cset = CacheSet(4)
        fill(cset, [(1, False), (2, True), (3, True), (4, True)])
        # window = {0,1}; way 0 private & in harvest; shared incoming:
        # non-harvest candidates (none private) -> harvest private way 0.
        policy = self.make(candidates=0.5)
        assert policy.choose_victim(cset, True, ALL4) == 0

    def test_harvest_only_mask(self):
        """A Harvest VM restricted to harvest ways never evicts outside."""
        cset = CacheSet(4)
        fill(cset, [(1, True), (2, True), (3, False), (4, False)])
        policy = self.make()
        victim = policy.choose_victim(cset, False, self.HARVEST)
        assert victim in (0, 1)

    def test_degenerate_no_harvest_region_prefers_private_eviction(self):
        """With harvest_mask=0 (Figure 15's +ReplPolicy without
        partitioning), the policy still prefers evicting private entries."""
        cset = CacheSet(4)
        fill(cset, [(1, True), (2, False), (3, True), (4, True)])
        policy = HardHarvestPolicy(0, 1.0)
        assert policy.choose_victim(cset, True, ALL4) == 1

    def test_bad_candidate_fraction_rejected(self):
        with pytest.raises(ValueError):
            HardHarvestPolicy(0b11, 0.0)
        with pytest.raises(ValueError):
            HardHarvestPolicy(0b11, 1.5)


class TestFactory:
    def test_make_policy(self):
        assert isinstance(make_policy("lru"), LruPolicy)
        assert isinstance(make_policy("rrip"), RripPolicy)
        assert isinstance(make_policy("hardharvest", 0b11), HardHarvestPolicy)
        with pytest.raises(ValueError):
            make_policy("belady")
