"""Tests for write-back modeling and the optional next-line prefetcher."""

import pytest

from repro.mem.cache import Cache, SetAssocArray
from repro.mem.partition import full_mask
from repro.mem.prefetch import NextLinePrefetcher
from repro.mem.replacement import LruPolicy


class TestWriteback:
    def test_dirty_eviction_counts_writeback(self):
        arr = SetAssocArray("c", 1, 2, LruPolicy())
        allowed = full_mask(2)
        arr.access(0, 1, False, allowed, write=True)
        arr.access(0, 2, False, allowed)
        assert arr.writebacks == 0
        arr.access(0, 3, False, allowed)  # evicts dirty tag 1
        assert arr.writebacks == 1

    def test_clean_eviction_free(self):
        arr = SetAssocArray("c", 1, 2, LruPolicy())
        allowed = full_mask(2)
        for tag in (1, 2, 3, 4):
            arr.access(0, tag, False, allowed)
        assert arr.writebacks == 0

    def test_write_hit_dirties_line(self):
        arr = SetAssocArray("c", 1, 2, LruPolicy())
        allowed = full_mask(2)
        arr.access(0, 1, False, allowed)          # clean fill
        arr.access(0, 1, False, allowed, write=True)  # write hit
        arr.access(0, 2, False, allowed)
        arr.access(0, 3, False, allowed)          # evicts tag 1 (dirty)
        assert arr.writebacks == 1

    def test_flush_writes_back_dirty_lines(self):
        arr = SetAssocArray("c", 2, 2, LruPolicy())
        allowed = full_mask(2)
        arr.access(0, 1, False, allowed, write=True)
        arr.access(1, 2, False, allowed)
        arr.flush_all()
        arr.settle()
        assert arr.writebacks == 1  # only the dirty line

    def test_refill_after_flush_is_clean(self):
        arr = SetAssocArray("c", 1, 1, LruPolicy())
        allowed = full_mask(1)
        arr.access(0, 1, False, allowed, write=True)
        arr.flush_all()
        arr.access(0, 2, False, allowed)  # reconcile + clean fill
        arr.access(0, 3, False, allowed)  # evict clean tag 2
        assert arr.writebacks == 1  # just the flushed dirty line


class TestPrefetcher:
    def make(self, degree=1, sets=8, ways=2):
        cache = Cache("L1", sets * ways * 64, ways, 64, 5, LruPolicy())
        return NextLinePrefetcher(cache, degree)

    def test_sequential_stream_mostly_hits(self):
        pf = self.make(degree=2)
        allowed = full_mask(2)
        hits = sum(pf.access(i * 64, False, allowed) for i in range(64))
        assert hits > 32  # prefetching converts most misses into hits
        assert pf.prefetches_issued > 0
        assert pf.accuracy > 0.5

    def test_random_stream_low_accuracy(self):
        import numpy as np

        pf = self.make(degree=1, sets=4, ways=2)
        allowed = full_mask(2)
        rng = np.random.default_rng(0)
        for addr in rng.integers(0, 10_000, 300) * 64 * 7:
            pf.access(int(addr), False, allowed)
        assert pf.accuracy < 0.4

    def test_prefetch_respects_allowed_mask(self):
        """Prefetches issued under a restricted mask stay inside it."""
        cache = Cache("L1", 4 * 4 * 64, 4, 64, 5, LruPolicy())
        pf = NextLinePrefetcher(cache, degree=2)
        harvest = 0b0011
        for i in range(32):
            pf.access(i * 64, False, harvest)
        cache.array.settle()
        for cset in cache.array.sets.values():
            assert cset.valid_mask & ~harvest == 0

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            self.make(degree=0)
