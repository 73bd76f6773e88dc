"""Batched scan kernels for the scheduler fast path.

The request-queue mirrors (``Subqueue._codes``: one status byte per entry,
READY = 0) let the hot dequeue/has-ready/occupancy scans run at C speed
instead of walking Python entry objects:

* shallow queues (the common case) use ``bytearray.find`` — a single
  ``memchr`` per candidate;
* deep queues (software per-core queues under overload) batch the whole
  scan through NumPy: one vectorized compare + ``flatnonzero`` yields
  every READY position at once, and the steering filter then touches only
  those entries.

NumPy is optional: when it is unavailable the helpers fall back to the
``find`` loop, which is still far faster than the object walk.
"""

from __future__ import annotations

from typing import List

from repro.hw.request_queue import CODE_READY

try:  # pragma: no cover - exercised implicitly by every fast-path run
    import numpy as _np
except Exception:  # pragma: no cover - numpy is a hard dep elsewhere
    _np = None

#: Queue depth at which the vectorized scan beats the ``find`` loop.
#: Below this, NumPy's per-call overhead (buffer wrap + two temporaries)
#: costs more than it saves.
NUMPY_SCAN_MIN = 64


def ready_positions(codes: bytearray) -> List[int]:
    """Positions of every READY entry, oldest first.

    Vectorized for deep queues, ``memchr``-stepped otherwise.
    """
    if _np is not None and len(codes) >= NUMPY_SCAN_MIN:
        return _np.flatnonzero(
            _np.frombuffer(codes, dtype=_np.uint8) == CODE_READY
        ).tolist()
    out: List[int] = []
    find = codes.find
    i = find(CODE_READY)
    while i >= 0:
        out.append(i)
        i = find(CODE_READY, i + 1)
    return out
