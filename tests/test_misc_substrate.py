"""Tests for remaining substrate pieces: units, RNG, addresses, DRAM, NIC."""

import numpy as np
import pytest

from repro.cluster.nic import ARRIVAL_PATH_NS, PAYLOAD_LINES, Nic
from repro.config import HierarchyConfig, MemoryConfig
from repro.mem.address import PAGE_BYTES, AddressSpace, Region
from repro.mem.dram import DramModel
from repro.mem.hierarchy import build_llc
from repro.sim.rng import RngRegistry
from repro.sim.units import KB, MB, MS, SEC, US, cycles_to_ns, ns_to_cycles


class TestUnits:
    def test_constants(self):
        assert US == 1_000 and MS == 1_000_000 and SEC == 1_000_000_000
        assert MB == 1024 * KB

    def test_cycles_round_trip(self):
        assert cycles_to_ns(3, 3.0) == 1
        assert cycles_to_ns(1000, 3.0) == 333
        assert ns_to_cycles(1, 3.0) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            cycles_to_ns(1, 0.0)


class TestRngRegistry:
    def test_streams_independent_and_stable(self):
        reg1 = RngRegistry(1)
        reg2 = RngRegistry(1)
        a1 = reg1.stream("a").random(5)
        a2 = reg2.stream("a").random(5)
        assert np.allclose(a1, a2)  # reproducible
        b = reg1.stream("b").random(5)
        assert not np.allclose(a1, b)  # independent streams

    def test_stream_continues(self):
        reg = RngRegistry(1)
        first = reg.stream("x").random()
        second = reg.stream("x").random()
        assert first != second

    def test_fresh_restarts(self):
        reg = RngRegistry(1)
        first = reg.stream("x").random()
        restarted = reg.fresh("x").random()
        assert restarted == first

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("a").random(4)
        b = RngRegistry(2).stream("a").random(4)
        assert not np.allclose(a, b)

    def test_seed_type_checked(self):
        with pytest.raises(TypeError):
            RngRegistry("seed")


class TestAddressSpace:
    def test_regions_disjoint_within_vm(self):
        space = AddressSpace(3)
        r1 = space.alloc(10, shared=True)
        r2 = space.alloc(5, shared=False)
        assert r1.start_page + r1.num_pages <= r2.start_page

    def test_vm_namespaces_never_collide(self):
        a = AddressSpace(1).alloc(4, True)
        b = AddressSpace(2).alloc(4, True)
        assert a.addr(0) != b.addr(0)
        # High bits carry the VM id.
        assert a.addr(0) >> 44 == 1
        assert b.addr(0) >> 44 == 2

    def test_bounds_checked(self):
        region = AddressSpace(0).alloc(2, True)
        with pytest.raises(IndexError):
            region.addr(2)
        with pytest.raises(IndexError):
            region.addr(0, PAGE_BYTES)

    def test_validation(self):
        with pytest.raises(ValueError):
            AddressSpace(-1)
        with pytest.raises(ValueError):
            Region(0, 0, 0, True)


class TestDram:
    def test_relaxed_latency_is_base(self):
        dram = DramModel(MemoryConfig(access_ns=90))
        # Sparse accesses: no pressure.
        lat = [dram.access_latency(i * 1_000_000) for i in range(10)]
        assert lat[-1] == 90

    def test_saturation_inflates_latency(self):
        dram = DramModel(MemoryConfig(access_ns=90, bandwidth_gbps=10.0))
        # Hammer with back-to-back accesses (gap 0-1 ns << 6.4 ns saturation).
        last = 90
        for i in range(3000):
            last = dram.access_latency(i)
        assert last > 90
        assert dram.accesses == 3000


class TestNic:
    def test_deliver_warms_llc_and_counts(self):
        nic = Nic()
        llc = build_llc("llc", HierarchyConfig(), 4)
        called = []
        lat = nic.deliver(llc, 0x5000, lambda: called.append(1))
        assert lat == ARRIVAL_PATH_NS
        assert called == [1]
        assert nic.packets_received == 1
        # Payload lines are resident (DDIO).
        from repro.mem.partition import full_mask

        assert llc.probe(0x5000, full_mask(llc.array.ways))
        assert llc.probe(0x5000 + 64 * (PAYLOAD_LINES - 1), full_mask(llc.array.ways))
