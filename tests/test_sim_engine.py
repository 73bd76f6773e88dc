"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, lambda: order.append("c"))
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_ties_broken_by_insertion_order():
    sim = Simulator()
    order = []
    for label in "abc":
        sim.schedule(5, order.append, label)
    sim.run()
    assert order == ["a", "b", "c"]


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(5, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_cancellation():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10, lambda: fired.append(1))
    sim.schedule(5, handle.cancel)
    sim.run()
    assert fired == []


def test_run_until_advances_clock_without_firing_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda: fired.append(1))
    sim.run(until=50)
    assert fired == []
    assert sim.now == 50
    sim.run()
    assert fired == [1]


def test_run_until_over_a_drained_heap_leaves_the_clock_at_its_last_event():
    sim = Simulator()
    sim.schedule(30, lambda: None)
    sim.schedule(60, lambda: None).cancel()
    sim.run(until=100)
    assert sim.now == 30
    assert sim.pending_live_events == 0


def test_max_events_limits_execution():
    sim = Simulator()
    count = []
    for i in range(10):
        sim.schedule(i + 1, count.append, i)
    fired = sim.run(max_events=4)
    assert fired == 4
    assert len(count) == 4


def test_events_can_schedule_events():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 30


def test_stop_breaks_run_immediately():
    sim = Simulator()
    seen = []

    def tick(n):
        seen.append(n)
        if n == 2:
            sim.stop()
        sim.schedule(10, tick, n + 1)

    sim.schedule(0, tick, 0)
    sim.run()
    assert seen == [0, 1, 2]
    # Run can resume afterwards.
    sim.run(max_events=1)
    assert seen == [0, 1, 2, 3]


def test_peek_next_time_skips_cancelled():
    sim = Simulator()
    h1 = sim.schedule(5, lambda: None)
    sim.schedule(9, lambda: None)
    h1.cancel()
    assert sim.peek_next_time() == 9


def test_reentrant_run_rejected():
    sim = Simulator()

    def bad():
        sim.run()

    sim.schedule(1, bad)
    with pytest.raises(RuntimeError):
        sim.run()


def test_events_fired_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_fired == 5
