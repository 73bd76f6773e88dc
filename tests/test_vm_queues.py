"""Tests for VM-level queues: software per-core steering vs a hardware
Queue Manager's shared subqueue."""

import random

import pytest

from repro.cluster.vm import BatchUnit, HarvestVm, SoftwareQueue
from repro.config import ControllerConfig
from repro.hw.controller import HardHarvestController
from repro.mem.address import AddressSpace
from repro.workloads.batch import BATCH_JOBS
from repro.workloads.memory_profile import BatchMemory


class FakeRequest:
    def __init__(self, name, steered=None):
        self.name = name
        self.steered_core_id = steered

    def __repr__(self):
        return f"<{self.name}>"


class TestSoftwareQueueSteering:
    def test_steered_dequeue_matches_core(self):
        q = SoftwareQueue(0)
        a = FakeRequest("a", steered=1)
        b = FakeRequest("b", steered=2)
        q.enqueue(a)
        q.enqueue(b)
        assert q.has_ready(1) and q.has_ready(2)
        assert not q.has_ready(3)
        assert q.dequeue(2) is b
        assert q.dequeue(2) is None
        assert q.dequeue(1) is a

    def test_unsteered_matches_any_core(self):
        q = SoftwareQueue(0)
        a = FakeRequest("a", steered=None)
        q.enqueue(a)
        assert q.has_ready(7)
        assert q.dequeue(7) is a

    def test_dequeue_any_fifo(self):
        q = SoftwareQueue(0)
        a, b = FakeRequest("a", 1), FakeRequest("b", 2)
        q.enqueue(a)
        q.enqueue(b)
        assert q.dequeue(None) is a

    def test_exclude_steered_to_loaned_cores(self):
        q = SoftwareQueue(0)
        a, b = FakeRequest("a", 1), FakeRequest("b", 2)
        q.enqueue(a)
        q.enqueue(b)
        assert q.dequeue(None, exclude_steered_to={1}) is b
        assert not q.has_ready(None, exclude_steered_to={1})

    def test_ready_steered_cores_order_and_dedup(self):
        q = SoftwareQueue(0)
        for name, core in (("a", 3), ("b", 1), ("c", 3)):
            q.enqueue(FakeRequest(name, core))
        assert q.ready_steered_cores() == [3, 1]

    def test_blocked_requests_not_ready(self):
        q = SoftwareQueue(0)
        a = FakeRequest("a", 1)
        q.enqueue(a)
        got = q.dequeue(1)
        q.mark_blocked(got)
        assert not q.has_ready(1)
        assert q.ready_count() == 0
        q.mark_ready(got)
        assert q.ready_count() == 1
        q.dequeue(1)
        q.complete(got)
        assert q.pending() == 0


class TestDeepSoftwareQueue:
    """About 200 queued requests, ten times the deepest queue a simulated
    run reaches, mixing steered, unsteered, blocked and excluded entries;
    every answer is checked against a plain walk over ``[request, state]``
    pairs in FIFO order."""

    STEERS = (None, 0, 1, 2, 3)

    @staticmethod
    def oldest(model, core_id, exclude):
        for req, state in model:
            steer = req.steered_core_id
            if state == "ready" and not (exclude and steer in exclude) and (
                core_id is None or steer is None or steer == core_id
            ):
                return req
        return None

    def test_matches_a_plain_walk(self):
        rng = random.Random(11)
        q = SoftwareQueue(0)
        model = []
        deepest = most_blocked = excluded_hits = 0
        for n in range(1000):
            if n < 200 or rng.random() < 0.4:
                req = FakeRequest(f"r{n}", rng.choice(self.STEERS))
                q.enqueue(req)
                model.append([req, "ready"])
            if n < 200:
                continue
            blocked = [pair for pair in model if pair[1] == "blocked"]
            if blocked and rng.random() < 0.3:
                pair = rng.choice(blocked)
                q.mark_ready(pair[0])
                pair[1] = "ready"
            deepest = max(deepest, len(model))
            most_blocked = max(most_blocked, len(blocked))

            core_id = rng.choice(self.STEERS)
            exclude = set(rng.sample(range(4), rng.randint(0, 2))) or None
            expected = self.oldest(model, core_id, exclude)
            if expected is not self.oldest(model, core_id, None):
                excluded_hits += 1
            assert q.has_ready(core_id, exclude) is (expected is not None)
            assert q.ready_steered_cores() == list(dict.fromkeys(
                req.steered_core_id for req, state in model
                if state == "ready" and req.steered_core_id is not None
            ))
            assert q.ready_count() == sum(state == "ready" for _, state in model)
            assert q.pending() == len(model)

            got = q.dequeue(core_id, exclude)
            assert got is expected
            if got is None:
                continue
            pair = next(pair for pair in model if pair[0] is got)
            roll = rng.random()
            if roll < 0.5:
                q.mark_blocked(got)
                pair[1] = "blocked"
            elif roll < 0.8:
                q.complete(got)
                model.remove(pair)
            else:
                q.requeue(got)
        assert deepest >= 200
        assert most_blocked >= 20
        assert excluded_hits >= 20


class TestQueueManagerQueue:
    """A hardware Primary VM's queue is its QM: one subqueue shared by the
    VM's cores, so steering arguments are ignored."""

    def make(self):
        ctrl = HardHarvestController(ControllerConfig(), 36)
        return ctrl.register_vm(0, True, 4)

    def test_any_core_dequeues(self):
        q = self.make()
        a = FakeRequest("a", steered=5)
        q.enqueue(a)
        # Shared subqueue: steering is irrelevant.
        assert q.has_ready(99)
        assert q.has_ready(None, exclude_steered_to={5})
        assert q.ready_steered_cores() == []
        assert q.dequeue(99) is a

    def test_ready_count(self):
        q = self.make()
        q.enqueue(FakeRequest("a"))
        q.enqueue(FakeRequest("b"))
        got = q.dequeue()
        assert q.ready_count() == 1
        q.mark_blocked(got)
        assert q.ready_count() == 1
        assert q.pending() == 2
        assert q.occupancy() == (2, 0)
        assert q.discard(got) is True
        assert q.discard(got) is False
        assert [r.name for r in q.drain()] == ["b"]
        assert q.pending() == 0


class TestHarvestVm:
    def make(self):
        job = BATCH_JOBS[0]
        mem = BatchMemory(AddressSpace(8), job.code_pages, job.data_pages, job.skew)
        return HarvestVm(8, job, mem, llc=None)

    def test_infinite_backlog(self):
        vm = self.make()
        for _ in range(5):
            unit = vm.next_unit()
            assert unit.remaining_frac == 1.0

    def test_preserved_partial_resumes_first(self):
        vm = self.make()
        vm.return_partial(0.4, preserved=True, lost_ns=0)
        unit = vm.next_unit()
        assert unit.remaining_frac == pytest.approx(0.4)
        assert vm.preemptions == 1
        assert vm.work_lost_ns == 0

    def test_unpreserved_work_is_lost(self):
        vm = self.make()
        vm.return_partial(0.7, preserved=False, lost_ns=1234)
        assert vm.work_lost_ns == 1234
        assert vm.next_unit().remaining_frac == 1.0

    def test_zero_remaining_not_requeued(self):
        vm = self.make()
        vm.return_partial(0.0, preserved=True, lost_ns=0)
        assert not vm.partial_units

    def test_batch_unit_validation(self):
        with pytest.raises(ValueError):
            BatchUnit(0.0)
        with pytest.raises(ValueError):
            BatchUnit(1.5)
