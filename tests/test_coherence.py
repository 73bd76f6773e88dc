"""Tests for the coherence directory (Section 4.2.1's invalidation claim)."""

import pytest

from repro.mem.cache import Cache
from repro.mem.coherence import Directory
from repro.mem.partition import WayPartition, full_mask
from repro.mem.replacement import HardHarvestPolicy, LruPolicy


def make_cache(partitioned=False):
    if partitioned:
        part = WayPartition.split(4, 0.5)
        return Cache("L1", 4 * 4 * 64, 4, 64, 5, HardHarvestPolicy(part.harvest, 0.75)), part
    return Cache("L1", 4 * 4 * 64, 4, 64, 5, LruPolicy()), WayPartition.unpartitioned(4)


def test_write_invalidates_other_sharers():
    d = Directory()
    c0, _ = make_cache()
    c1, _ = make_cache()
    d.register_core(0, [c0])
    d.register_core(1, [c1])
    allowed = full_mask(4)
    d.read(0, 0x1000, True, allowed)
    d.read(1, 0x1000, True, allowed)
    assert d.sharers_of(0x1000) == {0, 1}
    sent = d.write(0, 0x1000, True, allowed)
    assert sent == 1
    assert not c1.probe(0x1000, allowed)
    assert c0.probe(0x1000, allowed)
    assert d.sharers_of(0x1000) == {0}


def test_invalidation_reaches_non_harvest_ways():
    """The paper's claim: partitioning does not block coherence — a line
    protected in the non-harvest region is still invalidated on a remote
    write."""
    d = Directory()
    c0, part = make_cache(partitioned=True)
    c1, _ = make_cache(partitioned=True)
    d.register_core(0, [c0])
    d.register_core(1, [c1])
    # Shared entry lands in a NON-harvest way of core 0 (Algorithm 1).
    d.read(0, 0x2000, True, full_mask(4))
    set_index, tag = c0.locate(0x2000)
    way = c0.array.sets[set_index].find(tag, full_mask(4))
    assert (part.non_harvest >> way) & 1  # it really is protected
    # Remote write must still kill it.
    d.write(1, 0x2000, True, full_mask(4))
    assert not c0.probe(0x2000, full_mask(4))


def test_invalidation_survives_pending_lazy_flush():
    d = Directory()
    c0, _ = make_cache()
    c1, _ = make_cache()
    d.register_core(0, [c0])
    d.register_core(1, [c1])
    allowed = full_mask(4)
    d.read(1, 0x3000, False, allowed)
    c1.flush_ways(0b0001)  # pending lazy flush on one way
    sent = d.write(0, 0x3000, False, allowed)
    assert not c1.probe(0x3000, allowed)
    assert sent in (0, 1)  # flushed-away copies need no message


def test_unregistered_core_rejected():
    d = Directory()
    with pytest.raises(KeyError):
        d.read(0, 0x0, False, 0b1111)
    c, _ = make_cache()
    d.register_core(0, [c])
    with pytest.raises(ValueError):
        d.register_core(0, [c])


def test_writer_becomes_sole_sharer():
    d = Directory()
    caches = []
    for i in range(3):
        c, _ = make_cache()
        caches.append(c)
        d.register_core(i, [c])
    allowed = full_mask(4)
    for i in range(3):
        d.read(i, 0x4000, False, allowed)
    d.write(2, 0x4000, False, allowed)
    assert d.sharers_of(0x4000) == {2}
    assert d.invalidations_sent == 2


def test_invalidating_a_written_line_drops_its_dirty_bit():
    """A remote write knocks out a dirty copy: its Shared and dirty bits go
    with its valid bit, and the invalidation counts no write-back."""
    d = Directory()
    c0, _ = make_cache()
    c1, _ = make_cache()
    d.register_core(0, [c0])
    d.register_core(1, [c1])
    allowed = full_mask(4)
    d.write(1, 0x5000, True, allowed)  # core 1 holds a dirty, Shared copy
    set_index, tag = c1.locate(0x5000)
    cset = c1.array.sets[set_index]
    way = cset.find(tag, allowed)
    assert (cset.dirty_mask >> way) & 1 and (cset.shared_mask >> way) & 1
    assert d.write(0, 0x5000, True, allowed) == 1
    assert cset.find(tag, allowed) == -1
    assert cset.dirty_mask & ~cset.valid_mask == 0
    assert cset.shared_mask & ~cset.valid_mask == 0
    c1.flush_all()
    c1.array.settle()
    assert c1.array.writebacks == 0
