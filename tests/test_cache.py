"""Unit tests for the set-associative array, cache, and TLB models."""

import pytest

from repro.mem.cache import Cache, SetAssocArray
from repro.mem.partition import WayPartition, full_mask, harvest_mask
from repro.mem.replacement import LruPolicy
from repro.mem.tlb import Tlb


def make_array(sets=4, ways=2):
    return SetAssocArray("test", sets, ways, LruPolicy())


class TestSetAssocArray:
    def test_miss_then_hit(self):
        arr = make_array()
        allowed = full_mask(2)
        assert arr.access(0, 42, False, allowed) is False
        assert arr.access(0, 42, False, allowed) is True
        assert arr.hits == 1
        assert arr.misses == 1
        assert arr.hit_rate() == 0.5

    def test_capacity_eviction(self):
        arr = make_array(sets=1, ways=2)
        allowed = full_mask(2)
        arr.access(0, 1, False, allowed)
        arr.access(0, 2, False, allowed)
        arr.access(0, 3, False, allowed)  # evicts tag 1 (LRU)
        assert arr.evictions == 1
        assert arr.access(0, 2, False, allowed) is True
        assert arr.access(0, 1, False, allowed) is False

    def test_flush_all_empties(self):
        arr = make_array()
        allowed = full_mask(2)
        arr.access(0, 1, False, allowed)
        arr.access(1, 2, False, allowed)
        assert arr.occupancy() == 2
        arr.flush_all()
        assert arr.occupancy() == 0
        assert arr.access(0, 1, False, allowed) is False

    def test_flush_ways_partial(self):
        arr = make_array(sets=1, ways=2)
        allowed = full_mask(2)
        arr.access(0, 1, False, allowed)  # lands in some way
        arr.access(0, 2, False, allowed)
        assert arr.flush_ways(0b01) == 1  # invalidate way 0 only
        assert arr.occupancy() == 1
        assert arr.flush_ways(0b110) == 1  # bits past the last way are ignored

    def test_lazy_flush_equivalent_to_eager(self):
        """Entries in flushed ways must miss on the next access even though
        invalidation is lazy."""
        arr = make_array(sets=2, ways=2)
        allowed = full_mask(2)
        arr.access(0, 7, False, allowed)
        arr.access(1, 9, False, allowed)
        arr.flush_all()
        # No settle() call: the access path itself must observe the flush.
        assert arr.access(0, 7, False, allowed) is False
        assert arr.access(1, 9, False, allowed) is False

    def test_refill_survives_a_later_flush_of_other_ways(self):
        """A set reconciled after one mask's flush keeps what it refilled
        there when a different mask is flushed later."""
        arr = make_array(sets=1, ways=2)
        allowed = full_mask(2)
        arr.access(0, 1, False, allowed)  # way 0
        arr.flush_ways(0b01)
        arr.access(0, 2, False, allowed)  # reconciles, refills way 0
        arr.flush_ways(0b10)
        assert arr.access(0, 2, False, allowed) is True

    def test_flush_then_refill_then_flush_older_epoch(self):
        arr = make_array(sets=1, ways=2)
        allowed = full_mask(2)
        arr.access(0, 1, False, allowed)
        arr.flush_all()
        arr.access(0, 2, False, allowed)  # refill after flush
        assert arr.access(0, 2, False, allowed) is True

    def test_probe_does_not_mutate(self):
        arr = make_array()
        allowed = full_mask(2)
        assert arr.probe(0, 5, allowed) is False
        arr.access(0, 5, False, allowed)
        hits, misses = arr.hits, arr.misses
        assert arr.probe(0, 5, allowed) is True
        assert (arr.hits, arr.misses) == (hits, misses)

    def test_trace_recording_with_limit(self):
        arr = make_array()
        arr.enable_trace(limit=2)
        allowed = full_mask(2)
        for tag in range(5):
            arr.access(0, tag, False, allowed)
        assert len(arr.trace) == 2
        assert arr.trace[0] == (0, 0, False)

    def test_out_of_range_set_rejected(self):
        arr = make_array(sets=2)
        with pytest.raises(IndexError):
            arr.access(5, 1, False, full_mask(2))


class TestCache:
    def test_geometry(self):
        cache = Cache("L1", 1024, 2, 64, 5, LruPolicy())
        assert cache.array.num_sets == 8
        set_index, tag = cache.locate(0)
        assert (set_index, tag) == (0, 0)
        # Address one line up maps to the next set.
        assert cache.locate(64)[0] == 1
        # Address num_sets lines up wraps to set 0 with tag 1.
        assert cache.locate(64 * 8) == (0, 1)

    def test_same_set_different_tags_conflict(self):
        cache = Cache("L1", 1024, 2, 64, 5, LruPolicy())
        allowed = full_mask(2)
        stride = 64 * 8  # same set
        cache.access(0, False, allowed)
        cache.access(stride, False, allowed)
        cache.access(2 * stride, False, allowed)
        assert cache.access(0, False, allowed) is False  # evicted

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache("bad", 1000, 3, 64, 5, LruPolicy())


class TestTlb:
    def test_page_granularity(self):
        tlb = Tlb("L1TLB", 8, 2, 2, LruPolicy())
        allowed = full_mask(2)
        assert tlb.access(0, True, allowed) is False
        # Same page, different offset: hit.
        assert tlb.access(100, True, allowed) is True
        # Different page: miss.
        assert tlb.access(4096, True, allowed) is False

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            Tlb("bad", 7, 2, 2, LruPolicy())


class TestPartitionMasks:
    def test_full_mask(self):
        assert full_mask(4) == 0b1111
        with pytest.raises(ValueError):
            full_mask(0)

    def test_harvest_mask_half(self):
        assert harvest_mask(8, 0.5) == 0b1111

    def test_harvest_mask_bounds(self):
        # Never all ways, never zero ways.
        assert harvest_mask(2, 0.9) == 0b01
        assert harvest_mask(2, 0.1) == 0b01
        with pytest.raises(ValueError):
            harvest_mask(4, 0.0)

    def test_way_partition_complement(self):
        part = WayPartition.split(8, 0.5)
        assert part.harvest | part.non_harvest == full_mask(8)
        assert part.harvest & part.non_harvest == 0
        assert part.harvest_way_count == 4

    def test_unpartitioned(self):
        part = WayPartition.unpartitioned(8)
        assert part.harvest == 0
        assert part.non_harvest == full_mask(8)
