"""Discrete-event simulation engine.

This is the substrate that replaces SST's cycle-level engine in the paper's
evaluation. Events are callbacks scheduled at integer-nanosecond timestamps;
ties are broken by insertion order so runs are fully deterministic.

Typical use::

    sim = Simulator()
    sim.schedule(10 * US, lambda: print("fired at", sim.now))
    sim.run()

Components hold a reference to the simulator and schedule their own
continuations; there are no processes/coroutines, just plain callbacks, which
keeps the hot loop cheap enough for multi-second simulated horizons.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: Heap-compaction trigger: compact only past this many dead entries
#: (amortizes the O(n) sweep) and only when they are the majority of the
#: heap (so each sweep at least halves it).  Module-level so tests can
#: exercise compaction without scheduling hundreds of timers (override
#: per-instance via ``Simulator.compact_min_cancelled``).
COMPACT_MIN_CANCELLED = 512


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation.

    Cancellation is lazy: the event stays in the heap but is skipped when it
    reaches the front. This is O(1) and is the standard approach for
    calendar queues with rare cancellations.

    Handles double as cancellable timers (deadline timers, fault windows):
    :attr:`active` says whether the event can still fire, which lets
    bookkeeping code drop stale handles without tracking fire state itself.
    Cancelling from *within* another event at the same timestamp is safe —
    the cancelled event is skipped even though it is already in the heap's
    front region.
    """

    __slots__ = ("time", "cancelled", "fired", "_fn", "_args", "_sim")

    def __init__(
        self,
        time: int,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: "Optional[Simulator]" = None,
    ):
        self.time = time
        self.cancelled = False
        self.fired = False
        self._fn = fn
        self._args = args
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call multiple times,
        including after the event already fired (then a no-op)."""
        if self.cancelled:
            return
        self.cancelled = True
        if not self.fired and self._sim is not None:
            self._sim._note_cancelled()

    @property
    def active(self) -> bool:
        """True while the event is still pending (not fired, not cancelled)."""
        return not self.cancelled and not self.fired

    def fire(self) -> None:
        self.fired = True
        self._fn(*self._args)


class Simulator:
    """A deterministic discrete-event simulator with an integer-ns clock."""

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: List[Tuple[int, int, EventHandle]] = []
        self._seq = 0
        self._events_fired = 0
        self._running = False
        self._stop_requested = False
        #: Instance-level compaction trigger (tests lower it to exercise
        #: compaction cheaply; see module constant for the rationale).
        self.compact_min_cancelled = COMPACT_MIN_CANCELLED
        # Observation-only probe callbacks (telemetry). They live in a side
        # heap with their own sequence counter, so scheduling a probe never
        # touches ``_seq`` — the tie-breaking order, heap contents, and
        # ``pending_events`` of the *simulation* are bit-identical whether
        # probes exist or not.
        self._probes: List[Tuple[int, int, Callable[[], Any]]] = []
        self._probe_seq = 0
        # Cancelled-but-unpopped events currently sitting in the heap.
        # Tracked so ``pending_live_events`` is O(1) and so a
        # cancellation-heavy workload (deadline timers, fault windows)
        # triggers compaction instead of dragging dead weight through
        # every subsequent heap operation.
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now.

        ``delay`` must be a non-negative integer. Returns a handle that can
        cancel the event before it fires.
        """
        # Inlined schedule_at: this is the hottest scheduling entry point,
        # and delay >= 0 implies time >= now, so the past-check reduces to
        # a sign check on the delay.
        time = self.now + int(delay)
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: delay={delay} < 0")
        handle = EventHandle(time, fn, args, self)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle))
        return handle

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulation time ``time`` ns."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: t={time} < now={self.now}"
            )
        handle = EventHandle(time, fn, args, self)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle))
        return handle

    def schedule_probe(self, time: int, fn: Callable[[], Any]) -> None:
        """Schedule an observation-only callback at absolute time ``time``.

        Probes are the telemetry hook point: they fire in timestamp order
        interleaved with simulation events, but they are invisible to the
        simulation — they do not count toward ``max_events`` or
        :attr:`pending_events`, and they never consume a ``_seq`` slot, so
        tie-breaking among real events is unaffected. The contract is that
        a probe only *reads* simulator/component state (and may schedule
        the next probe); a probe that mutates state voids the
        telemetry-off/on bit-identity guarantee.

        A probe pending after the last simulation event simply never fires
        (the run is over); this is what bounds self-rescheduling probes.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule a probe in the past: t={time} < now={self.now}"
            )
        self._probe_seq += 1
        heapq.heappush(self._probes, (time, self._probe_seq, fn))

    def _fire_probes_until(self, time: int) -> None:
        """Fire every pending probe with timestamp <= ``time``."""
        while self._probes and self._probes[0][0] <= time:
            ptime, _pseq, pfn = heapq.heappop(self._probes)
            if ptime > self.now:
                self.now = ptime
            pfn()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events in timestamp order.

        Stops when the event heap is empty, when the next event is past
        ``until`` (clock is then advanced to ``until``), after
        ``max_events`` events, or when an event calls :meth:`stop`.
        Returns the number of events fired.  A heap that runs out of live
        events before ``until`` leaves the clock at its last event: only
        an event still pending past ``until`` moves the clock there.

        Batched drain: every event stamped ``t`` runs before the clock,
        the probe side-heap or the ``until`` bound is consulted again, so
        those checks cost once per *timestamp batch* instead of once per
        event.  Pop order is the heap's ``(time, seq)`` order, exactly as
        a one-event-at-a-time loop would fire them:

        * cancelled *head* entries are skipped without advancing ``now``
          (a heap tail of dead timers must not move the clock);
        * probes fire once per timestamp batch, before its first live
          event — they observe the state the previous batch left, because
          only live events mutate state;
        * an event scheduled at the current timestamp from within the
          batch (``delay=0``) carries a higher ``seq`` and is picked up by
          the same drain;
        * ``stop()`` and ``max_events`` are honored between events inside
          a batch, not just between batches.
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        self._running = True
        self._stop_requested = False
        fired = 0
        base_fired = self._events_fired
        heap = self._heap
        heappop = heapq.heappop
        done = False
        try:
            while heap and not done:
                time, _seq, handle = heap[0]
                if until is not None and time > until:
                    break
                if handle.cancelled:
                    heappop(heap)
                    self._cancelled_pending -= 1
                    continue
                if self._probes:
                    self._fire_probes_until(time)
                self.now = time
                # Drain every entry stamped `time`.  The heap local stays
                # valid across mid-batch compaction (`_compact` rewrites
                # the list in place), and `heap[0]` is re-read every
                # iteration so newly scheduled same-timestamp events join
                # the batch in seq order.
                while True:
                    heappop(heap)
                    if handle.cancelled:
                        self._cancelled_pending -= 1
                    else:
                        handle.fired = True
                        handle._fn(*handle._args)
                        fired += 1
                        if self._stop_requested or (
                            max_events is not None and fired >= max_events
                        ):
                            done = True
                            break
                    if not heap or heap[0][0] != time:
                        break
                    handle = heap[0][2]
                # Fold the batch's count back at the barrier so probes (and
                # anything else reading between batches) see a live total.
                self._events_fired = base_fired + fired
            if (until is not None and self.now < until
                    and not self._stop_requested and self.pending_live_events):
                if self._probes:
                    self._fire_probes_until(until)
                self.now = until
        finally:
            self._events_fired = base_fired + fired
            self._running = False
        return fired

    def stop(self) -> None:
        """Request that the current :meth:`run` return after this event."""
        self._stop_requested = True

    def close(self) -> None:
        """Drop every pending event and probe; the run is over.

        A pending handle's callback is usually a bound method of the
        component that scheduled it, and that component often keeps the
        handle (a core's ``run_event``, a request's deadline timer), so a
        finished run is a web of reference cycles.  Clearing the heaps and
        each pending handle's callback, arguments and simulator breaks
        them, so the run is freed by reference counting alone.  Idempotent;
        a later :meth:`run` finds nothing to fire.
        """
        for _time, _seq, handle in self._heap:
            handle._fn = handle._sim = None
            handle._args = ()
        self._heap.clear()
        self._probes.clear()
        self._cancelled_pending = 0

    def peek_next_time(self) -> Optional[int]:
        """Timestamp of the next pending (non-cancelled) event, or None."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
            self._cancelled_pending -= 1
        return self._heap[0][0] if self._heap else None

    # ------------------------------------------------------------------
    # Cancellation accounting
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """A pending event was cancelled (called by its handle)."""
        n = self._cancelled_pending + 1
        self._cancelled_pending = n
        if n > self.compact_min_cancelled and 2 * n > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap.

        In-place (slice assignment + heapify) so that a ``run()`` loop
        holding a reference to the heap list keeps seeing the live queue.
        Firing order is untouched: entries keep their (time, seq) keys and
        cancelled events never fire anyway.
        """
        self._heap[:] = [e for e in self._heap if not e[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0

    @property
    def pending_events(self) -> int:
        """Number of scheduled events not yet fired (including cancelled).

        Probes are deliberately excluded: run loops that drain the heap
        must behave identically with and without telemetry attached.
        """
        return len(self._heap)

    @property
    def pending_live_events(self) -> int:
        """Number of pending events that can still fire (cancelled excluded).

        O(1): maintained by cancellation accounting rather than a heap scan.
        This is the right predicate for "is there work left" checks — a heap
        holding only cancelled timers is already drained.
        """
        return len(self._heap) - self._cancelled_pending

    @property
    def pending_probes(self) -> int:
        """Number of scheduled observation probes not yet fired."""
        return len(self._probes)

    @property
    def events_fired(self) -> int:
        """Total number of events executed since construction."""
        return self._events_fired
