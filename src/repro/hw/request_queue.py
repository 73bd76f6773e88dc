"""The hardware Request Queue (RQ): chunks, subqueues, RQ-Maps, overflow.

Section 4.1.2: a single physical RQ of 32 chunks × 64 entries is divided
into per-VM logical subqueues. A subqueue owns one or more chunks; its
RQ-Map lists which physical chunks compose it, in logical order. Chunks are
donated from subqueue tails when new VMs arrive (displaced entries spill to
that VM's software In-memory Overflow Subqueue) and returned when VMs leave.

An entry is a pointer to the request payload in the LLC plus a 2-bit status
(READY / RUNNING / BLOCKED, Section 6.8). A subqueue keeps the pointers in
``entries`` and the statuses in ``status``, a bytearray with one
:class:`RequestStatus` byte per entry at the same position. Blocked requests
keep their entry (Section 4.1.5) so the response can mark them ready in
place.
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from typing import Deque, Dict, List, Optional, Set, Tuple


class RequestStatus(IntEnum):
    """The 2-bit status of an RQ entry (Section 6.8's status bits), valued
    as the byte a :class:`Subqueue` stores for it."""

    READY = 0
    RUNNING = 1
    BLOCKED = 2


#: The statuses as plain ints for the byte searches: ``bytearray.find``
#: converts an ``IntEnum`` argument on every call.
READY, RUNNING, BLOCKED = (int(status) for status in RequestStatus)


class Subqueue:
    """A VM's logical subqueue: occupies whole chunks, spills to memory.

    The in-hardware part holds at most ``capacity`` entries (chunks ×
    entries/chunk); beyond that, pointers go to the In-memory Overflow
    Subqueue, and are promoted into hardware as entries retire.

    ``status[i]`` is the only record of ``entries[i]``'s state, so the
    READY searches are byte searches (``find``, ``rfind``, ``count``).
    Requests compare by identity, so ``entries.index`` finds one.
    """

    def __init__(self, vm_id: int, entries_per_chunk: int):
        self.vm_id = vm_id
        self.entries_per_chunk = entries_per_chunk
        self.rq_map: List[int] = []  # physical chunk ids, logical order
        self.entries: List[object] = []
        self.status = bytearray()
        self.overflow: Deque[object] = deque()
        self.overflow_highwater = 0

    @property
    def capacity(self) -> int:
        return len(self.rq_map) * self.entries_per_chunk

    @property
    def hw_occupancy(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------
    def enqueue(self, request: object) -> bool:
        """Add a request; returns True if it landed in hardware, False if it
        spilled to the overflow subqueue."""
        if len(self.entries) < self.capacity:
            self.entries.append(request)
            self.status.append(READY)
            return True
        self.overflow.append(request)
        self.overflow_highwater = max(self.overflow_highwater, len(self.overflow))
        return False

    def _promote_overflow(self) -> None:
        while self.overflow and len(self.entries) < self.capacity:
            self.entries.append(self.overflow.popleft())
            self.status.append(READY)

    def dequeue_ready(self) -> Optional[object]:
        """Oldest READY entry, marked RUNNING; None if there is none."""
        i = self.status.find(READY)
        if i < 0:
            return None
        self.status[i] = RUNNING
        return self.entries[i]

    def has_ready(self) -> bool:
        return READY in self.status

    def ready_count(self) -> int:
        """Number of READY entries in hardware."""
        return self.status.count(READY)

    def _position(self, request: object, expected: int, verb: str) -> int:
        """Index of ``request``, which must be in state ``expected``."""
        try:
            i = self.entries.index(request)
        except ValueError:
            raise KeyError(
                f"request {request!r} not present in subqueue of VM {self.vm_id}"
            ) from None
        if self.status[i] != expected:
            state = RequestStatus(self.status[i]).name.lower()
            raise ValueError(f"cannot {verb} a {state} request")
        return i

    def mark_blocked(self, request: object) -> None:
        """The core informed the QM that this request blocked on I/O.

        The entry stays in the subqueue (Section 4.1.5)."""
        self.status[self._position(request, RUNNING, "block")] = BLOCKED

    def mark_ready(self, request: object) -> None:
        """The NIC received the response for a blocked request."""
        self.status[self._position(request, BLOCKED, "ready")] = READY

    def requeue_ready(self, request: object) -> None:
        """Return a preempted RUNNING request to READY state (Figure 10b)."""
        self.status[self._position(request, RUNNING, "requeue")] = READY

    def complete(self, request: object) -> None:
        """Remove a finished request and promote overflow entries."""
        i = self._position(request, RUNNING, "complete")
        del self.entries[i]
        del self.status[i]
        self._promote_overflow()

    def discard(self, request: object) -> bool:
        """Remove a request in any state (abandoned attempt: timeout, shed,
        hedge loser, crash kill). Returns False if it is not queued here."""
        try:
            i = self.entries.index(request)
        except ValueError:
            try:
                self.overflow.remove(request)
            except ValueError:
                return False
            return True
        del self.entries[i]
        del self.status[i]
        self._promote_overflow()
        return True

    def drain(self) -> List[object]:
        """Remove and return every queued request (server crash). The
        hardware loses all RQ state; overflow pointers die with the kernel
        structures that tracked them."""
        drained = [*self.entries, *self.overflow]
        self.entries.clear()
        self.status.clear()
        self.overflow.clear()
        return drained

    # ------------------------------------------------------------------
    # Chunk management (RQ-Map operations)
    # ------------------------------------------------------------------
    def grant_chunk(self, chunk_id: int) -> None:
        """Insert a new chunk at the tail of the RQ-Map."""
        if chunk_id in self.rq_map:
            raise ValueError(f"chunk {chunk_id} already mapped to VM {self.vm_id}")
        self.rq_map.append(chunk_id)
        self._promote_overflow()

    def shed_chunk(self) -> int:
        """Donate the tail chunk; spill displaced entries to overflow.

        Entries that no longer fit in the shrunken hardware capacity move to
        the front of the overflow subqueue, newest READY entry first, so the
        oldest stay closest to hardware. Running and blocked entries must
        stay visible to the QM: with no READY entry left to move, the
        subqueue tolerates a transient over-capacity."""
        if not self.rq_map:
            raise ValueError(f"VM {self.vm_id} has no chunks to shed")
        chunk = self.rq_map.pop()
        while len(self.entries) > self.capacity:
            i = self.status.rfind(READY)
            if i < 0:
                break
            del self.status[i]
            self.overflow.appendleft(self.entries.pop(i))
            self.overflow_highwater = max(self.overflow_highwater, len(self.overflow))
        return chunk

    def total_pending(self) -> int:
        """Ready + blocked + running entries plus overflow length."""
        return len(self.entries) + len(self.overflow)

    def occupancy(self) -> Tuple[int, int]:
        """``(in-hardware entries, overflow entries)`` — the telemetry
        probes' gauge pair; splits :meth:`total_pending` so a trace shows
        whether pressure is in the RQ chunks or already spilling."""
        return len(self.entries), len(self.overflow)


class RequestQueue:
    """The physical RQ: a pool of chunks handed out to subqueues."""

    def __init__(self, num_chunks: int, entries_per_chunk: int):
        if num_chunks <= 0 or entries_per_chunk <= 0:
            raise ValueError("num_chunks and entries_per_chunk must be positive")
        self.num_chunks = num_chunks
        self.entries_per_chunk = entries_per_chunk
        self.free_chunks: List[int] = list(range(num_chunks))
        self.subqueues: Dict[int, Subqueue] = {}

    # ------------------------------------------------------------------
    def create_subqueue(self, vm_id: int, target_chunks: int) -> Subqueue:
        """Create a subqueue, taking chunks from the free pool first and
        then from the tails of the largest existing subqueues."""
        if vm_id in self.subqueues:
            raise ValueError(f"VM {vm_id} already has a subqueue")
        if target_chunks <= 0:
            raise ValueError(f"target_chunks must be positive, got {target_chunks}")
        sq = Subqueue(vm_id, self.entries_per_chunk)
        self.subqueues[vm_id] = sq
        granted = 0
        while granted < target_chunks and self.free_chunks:
            sq.grant_chunk(self.free_chunks.pop())
            granted += 1
        while granted < target_chunks:
            donor = max(
                self.subqueues.values(),
                key=lambda s: (len(s.rq_map), -s.vm_id),
            )
            if donor is sq or len(donor.rq_map) <= 1:
                break  # nothing reasonable left to take
            sq.grant_chunk(donor.shed_chunk())
            granted += 1
        if granted == 0:
            del self.subqueues[vm_id]
            raise RuntimeError("no chunks available for new subqueue")
        return sq

    def destroy_subqueue(self, vm_id: int) -> None:
        """VM departs: its chunks go to the tails of remaining subqueues."""
        sq = self.subqueues.pop(vm_id, None)
        if sq is None:
            raise KeyError(f"VM {vm_id} has no subqueue")
        if sq.total_pending():
            raise ValueError(
                f"cannot destroy subqueue of VM {vm_id} with pending requests"
            )
        released = list(sq.rq_map)
        sq.rq_map.clear()
        if not self.subqueues:
            self.free_chunks.extend(released)
            return
        receivers = sorted(self.subqueues.values(), key=lambda s: len(s.rq_map))
        i = 0
        for chunk in released:
            receivers[i % len(receivers)].grant_chunk(chunk)
            i += 1

    # ------------------------------------------------------------------
    def chunk_owner_invariant(self) -> bool:
        """Every chunk owned by exactly one subqueue or the free pool."""
        seen: Set[int] = set(self.free_chunks)
        if len(seen) != len(self.free_chunks):
            return False
        for sq in self.subqueues.values():
            for chunk in sq.rq_map:
                if chunk in seen:
                    return False
                seen.add(chunk)
        return seen == set(range(self.num_chunks))
