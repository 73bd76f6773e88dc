"""Cancellation and batched-drain edge cases in the event engine.

The fault subsystem leans on two guarantees that plain happy-path tests
don't exercise: cancelling an event from *within* another event that
fires at the same timestamp (deadline timers racing completions), and
the lifecycle of a handle after cancellation (stale-handle bookkeeping
via :attr:`EventHandle.active`).

The second half targets the batched same-timestamp drain
(:meth:`Simulator.run`): zero-delay events joining the current batch,
stop()/max_events honored mid-batch, heap compaction triggered *inside*
a drain, and probes firing between batches.  Where the orderings are
subtle, the full trace is pinned literally: it is the order a
one-event-at-a-time loop fires the same events in.
"""

import pytest

from repro.sim.engine import Simulator


def test_cancel_sibling_at_same_timestamp():
    """An event firing at t can cancel a sibling also scheduled at t.

    Both events are already in the heap's front region when the first
    fires; lazy cancellation must still suppress the second.
    """
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        second.cancel()

    sim.schedule(10, first)
    second = sim.schedule(10, lambda: fired.append("second"))
    third = sim.schedule(10, lambda: fired.append("third"))
    sim.run()
    assert fired == ["first", "third"]
    assert second.cancelled and not second.fired and not second.active
    assert third.fired and not third.active


def test_self_cancel_during_fire_is_noop():
    """cancel() on a handle that is mid-fire is a no-op, not an error."""
    sim = Simulator()
    fired = []
    handles = []

    def self_cancel():
        handles[0].cancel()
        fired.append("ran")

    handles.append(sim.schedule(5, self_cancel))
    sim.run()
    assert fired == ["ran"]
    assert handles[0].fired
    assert not handles[0].active  # no longer pending either way


def test_rescheduling_a_cancelled_handles_callback():
    """A cancelled handle's callback can be re-scheduled as a new event;
    the old handle stays dead and the new one fires independently."""
    sim = Simulator()
    fired = []

    def deadline(tag):
        fired.append(tag)

    old = sim.schedule(10, deadline, "old")
    old.cancel()
    new = sim.schedule(20, deadline, "new")  # re-arm: fresh handle
    assert not old.active and new.active
    sim.run()
    assert fired == ["new"]
    assert new.fired and not old.fired
    # Cancelling the spent old handle again is still safe.
    old.cancel()
    new.cancel()
    assert fired == ["new"]


def test_cancel_and_rearm_at_same_timestamp_from_within_event():
    """The retry path of a deadline timer: an event at t cancels a timer
    also pending at t and re-arms its callback at the same timestamp."""
    sim = Simulator()
    fired = []
    box = {}

    def rearm():
        box["timer"].cancel()
        box["timer"] = sim.schedule_at(sim.now, fired.append, "rearmed")

    sim.schedule(10, rearm)
    box["timer"] = sim.schedule(10, fired.append, "original")
    sim.run()
    assert fired == ["rearmed"]
    assert box["timer"].fired


def test_active_reflects_lifecycle():
    sim = Simulator()
    h = sim.schedule(5, lambda: None)
    assert h.active  # pending
    h.cancel()
    assert not h.active and not h.fired  # cancelled, never ran
    h2 = sim.schedule(5, lambda: None)
    sim.run()
    assert h2.fired and not h2.active  # fired


def test_cancelled_events_do_not_count_as_fired():
    sim = Simulator()
    handles = [sim.schedule(i, lambda: None) for i in range(6)]
    for h in handles[::2]:
        h.cancel()
    fired = sim.run()
    assert fired == 3
    assert sim.events_fired == 3


def test_peek_next_time_after_in_event_cancellation():
    """peek_next_time stays correct when the next pending event was
    cancelled by the one that just fired."""
    sim = Simulator()
    later = sim.schedule(20, lambda: None)
    sim.schedule(10, later.cancel)
    sim.run(max_events=1)
    assert sim.peek_next_time() is None


def test_pending_live_events_tracks_cancellations():
    sim = Simulator()
    a = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    assert sim.pending_live_events == 2
    a.cancel()
    a.cancel()  # idempotent: must not double-count
    assert sim.pending_live_events == 1
    assert sim.pending_events == 2  # raw heap still holds the dead entry
    sim.run()
    assert sim.pending_live_events == 0


def test_heavy_cancellation_compacts_heap():
    """Mass-cancelling deadline timers (a fault storm) triggers in-place
    heap compaction once dead entries are the majority, instead of
    dragging them through every subsequent push/pop."""
    sim = Simulator()
    handles = [sim.schedule(1000 + i, lambda: None) for i in range(1500)]
    for h in handles[:1200]:
        h.cancel()
    assert sim.pending_live_events == 300
    # Compaction swept the dead majority out of the raw heap.
    assert sim.pending_events < 1500
    assert sim.run() == 300


def test_compaction_preserves_firing_order():
    """Survivors fire in exactly the order they would have without any
    compaction: (time, seq) keys are untouched by the sweep."""
    sim = Simulator()
    fired = []
    handles = [
        sim.schedule(10 * (i % 7), fired.append, i) for i in range(1400)
    ]
    expected = [
        i for i, h in enumerate(handles) if i % 2
    ]
    for i, h in enumerate(handles):
        if i % 2 == 0:
            h.cancel()
    sim.run()
    # Stable by (time, insertion seq): same time bucket keeps index order.
    assert fired == sorted(expected, key=lambda i: (10 * (i % 7), i))


def test_cancellation_during_run_keeps_live_count_consistent():
    """Events cancelled from within events (and dead entries popped by the
    run loop) keep the O(1) live-count bookkeeping exact."""
    sim = Simulator()
    handles = []

    def cancel_some(k):
        for h in handles[k:k + 40]:
            h.cancel()

    for i in range(600):
        handles.append(sim.schedule(5 + i, lambda: None))
    for j in range(5):
        sim.schedule(j, cancel_some, j * 40)
    sim.run()
    assert sim.pending_live_events == 0
    assert sim.pending_events == 0


def test_rearm_must_target_now_or_later():
    """Re-arming a timer must target now or later — the engine refuses a
    stale absolute timestamp even for a fresh handle."""
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    assert sim.now == 10
    with pytest.raises(ValueError):
        sim.schedule_at(9, lambda: None)
    h = sim.schedule_at(10, lambda: None)  # now itself is fine
    assert h.active


# ----------------------------------------------------------------------
# Batched same-timestamp drain
# ----------------------------------------------------------------------

def test_mixed_schedule_cancel_rearm_matches_reference():
    """A same-timestamp soup of schedule/cancel/re-arm fires in the
    one-event-at-a-time order.

    The first event at t=10 cancels one sibling, re-arms another at the
    same timestamp (delay=0 -> joins the current batch), and schedules a
    future event; the trace (tag, now) pairs must match exactly.
    """
    sim = Simulator()
    trace = []

    def note(tag):
        trace.append((tag, sim.now))

    def first():
        note("first")
        victim.cancel()
        sim.schedule(0, note, "rearmed")  # joins the t=10 batch
        sim.schedule(5, note, "future")

    sim.schedule(10, first)
    victim = sim.schedule(10, note, "victim")
    sim.schedule(10, note, "survivor")
    sim.run()
    assert trace == [
        ("first", 10), ("survivor", 10), ("rearmed", 10), ("future", 15),
    ]


def test_zero_delay_chain_drains_in_one_batch():
    """delay=0 events scheduled from within a batch keep extending it, in
    seq order, without the clock moving."""
    sim = Simulator()
    trace = []

    def chain(depth):
        trace.append((depth, sim.now))
        if depth < 4:
            sim.schedule(0, chain, depth + 1)

    sim.schedule(7, chain, 0)
    sim.schedule(7, trace.append, "sibling")
    sim.run()
    # The sibling (seq 2) fires before the chain's continuations (seq 3+).
    assert trace == [(0, 7), "sibling", (1, 7), (2, 7), (3, 7), (4, 7)]
    assert sim.now == 7


def test_stop_mid_batch_suppresses_same_timestamp_tail():
    """stop() from inside a batch halts before the next same-timestamp
    event."""
    sim = Simulator()
    trace = []
    sim.schedule(10, trace.append, "a")
    sim.schedule(10, lambda: (trace.append("stop"), sim.stop()))
    sim.schedule(10, trace.append, "never")
    fired = sim.run()
    assert (trace, fired, sim.pending_live_events) == (["a", "stop"], 2, 1)


def test_max_events_honored_mid_batch():
    """max_events cuts a batch short at exactly the max_events-th event,
    and events_fired stays consistent."""
    sim = Simulator()
    trace = []
    for i in range(5):
        sim.schedule(10, trace.append, i)
    fired = sim.run(max_events=3)
    assert (trace, fired, sim.events_fired) == ([0, 1, 2], 3, 3)


def test_compaction_mid_drain_keeps_batch_coherent():
    """An event that mass-cancels siblings *in the same batch* can trigger
    in-place heap compaction while the drain loop holds its heap local;
    survivors (same and later timestamps) must still fire in order.

    Uses the instance-level ``compact_min_cancelled`` override so the
    sweep triggers at a test-sized heap.
    """
    sim = Simulator()
    sim.compact_min_cancelled = 8
    trace = []
    victims = []

    def massacre():
        trace.append("massacre")
        for h in victims:
            h.cancel()  # crosses the threshold -> _compact() mid-batch

    sim.schedule(10, massacre)
    for i in range(30):
        victims.append(sim.schedule(10, trace.append, f"dead{i}"))
    sim.schedule(10, trace.append, "same-t-survivor")
    sim.schedule(20, trace.append, "later-survivor")
    fired = sim.run()
    assert trace == ["massacre", "same-t-survivor", "later-survivor"]
    assert fired == 3
    assert sim.pending_events == 0 and sim.pending_live_events == 0


def test_compaction_mid_drain_matches_reference():
    """Mid-drain compaction across three timestamp batches keeps the
    one-event-at-a-time order: every odd-indexed survivor fires, batch by
    batch, in scheduling order within each batch."""
    sim = Simulator()
    sim.compact_min_cancelled = 8
    trace = []
    victims = []

    def massacre():
        trace.append(("massacre", sim.now))
        for h in victims[::2]:
            h.cancel()

    sim.schedule(10, massacre)
    for i in range(40):
        victims.append(sim.schedule(10 + (i % 3), trace.append, (i, "v")))
    sim.run()
    assert trace == [
        ("massacre", 10),
        # t=10
        (3, "v"), (9, "v"), (15, "v"), (21, "v"), (27, "v"), (33, "v"),
        (39, "v"),
        # t=11
        (1, "v"), (7, "v"), (13, "v"), (19, "v"), (25, "v"), (31, "v"),
        (37, "v"),
        # t=12
        (5, "v"), (11, "v"), (17, "v"), (23, "v"), (29, "v"), (35, "v"),
    ]


def test_probes_fire_between_batches():
    """Probes between two timestamp batches observe the state after the
    whole first batch — including the folded events_fired counter."""
    sim = Simulator()
    seen = []
    for _ in range(3):
        sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    sim.schedule_probe(15, lambda: seen.append((sim.now, sim.events_fired)))
    sim.run()
    assert seen == [(15, 3)]  # all of batch t=10, none of t=20
    assert sim.now == 20


def test_probe_at_batch_timestamp_fires_before_first_live_event():
    """A probe stamped exactly at a batch's timestamp fires before the
    batch's first live event (same as the reference loop: probes drain
    up to t before the event at t runs)."""
    sim = Simulator()
    trace = []
    sim.schedule(10, trace.append, "event")
    sim.schedule_probe(10, lambda: trace.append(("probe", sim.events_fired)))
    sim.run()
    assert trace == [("probe", 0), "event"]


def test_probe_between_batches_matches_reference():
    """Probe interleaving with zero-delay batch extension keeps the
    one-event-at-a-time order: continuations scheduled into the current
    batch fire before a probe stamped between this batch and the next.

    Events record only ``(tag, now)`` — ``events_fired`` is a
    barrier-consistent counter (folded once per batch), so only probes,
    which always run at barriers, may assert on it.
    """
    sim = Simulator()
    trace = []

    def ev(tag):
        trace.append((tag, sim.now))
        if tag == "a":
            sim.schedule(0, ev, "a0")

    sim.schedule(10, ev, "a")
    sim.schedule(30, ev, "b")
    sim.schedule_probe(20, lambda: trace.append(("p", sim.now, sim.events_fired)))
    sim.run()
    assert trace == [("a", 10), ("a0", 10), ("p", 20, 2), ("b", 30)]
