"""Host speed, measured next to the workload by a fixed pure-Python kernel.

On a shared 2-vCPU host the same code runs at very different speeds from
one second to the next: the host switches between regimes about a third
apart.  Every timed operation is therefore also reported in *normalized
seconds*: its wall time times ``REF_MS`` over the kernel's time measured
alongside it.  The kernel uses only the standard library, so a change to
the program never changes it.

* ``kernel_ms()`` times the kernel once, in the calling thread; the
  single-threaded warm passes run it between passes.
* :class:`Sampler` runs the kernel in a separate process every
  ``PERIOD_S``, pinned to each CPU in turn, while pool workers or a
  server do the work; an operation is normalized by the median of the
  samples taken during it.  The sampler times the kernel in thread CPU
  time, so time spent waiting for a CPU the workload's own processes
  hold does not count.  ``idle_busy.py`` checks that the rest of the
  program's load (caches, memory bandwidth, SMT siblings) does not move
  the kernel either: kernel time with two simulator processes busy over
  kernel time with the host idle, interleaved every 2 s.

    python3 perfbench/hostspeed.py   # the sampler process itself
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import List, Tuple

#: Nominal kernel time: normalized seconds are seconds on a host where
#: the kernel takes this long.
REF_MS = 2.0
PERIOD_S = 0.05
#: Samples this close to an operation count for it (short operations).
WINDOW_S = 0.5

_DOC = json.dumps({f"k{i}": [i, str(i), {"x": i * 0.5, "y": [i] * 4}]
                   for i in range(48)})


def kernel_ms(clock=time.perf_counter) -> float:
    """Milliseconds for one fixed mix of interpreter, allocation and
    JSON work (about 2 ms on a 2-vCPU cloud host), on ``clock``."""
    start = clock()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    for _ in range(12):
        doc = json.loads(_DOC)
        acc += len(json.dumps(doc))
        acc += sum(len(v) for v in doc.values())
    return (clock() - start) * 1e3


class Sampler:
    """Kernel times from a background process, stamped with
    ``time.monotonic()`` (shared by every process on the host)."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self._first = threading.Event()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdout=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        # Start timing only once the sampler is sampling.
        if not self._first.wait(timeout=60):
            self.stop()
            raise RuntimeError("host-speed sampler did not start")

    def _read(self) -> None:
        for line in self.proc.stdout:
            stamp, ms = line.split()
            self.samples.append((float(stamp), float(ms)))
            self._first.set()

    def kernel_ms(self, start: float, end: float) -> float:
        """Median kernel time over ``[start, end]`` widened by WINDOW_S."""
        lo, hi = start - WINDOW_S, end + WINDOW_S
        inside = [ms for stamp, ms in list(self.samples) if lo <= stamp <= hi]
        if not inside:
            raise RuntimeError("no host-speed samples around an operation")
        return statistics.median(inside)

    def normalize(self, start: float, end: float) -> float:
        """Normalized seconds of an operation from ``start`` to ``end``."""
        return (end - start) * REF_MS / self.kernel_ms(start, end)

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()
        self._reader.join(timeout=10)


def _sample_forever() -> None:
    cpus = sorted(os.sched_getaffinity(0))
    for cpu in itertools.cycle(cpus):
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass  # pinning refused: sample wherever the scheduler runs us
        stamp = time.monotonic()
        sys.stdout.write(f"{stamp:.6f} {kernel_ms(time.thread_time):.5f}\n")
        sys.stdout.flush()
        time.sleep(PERIOD_S)


if __name__ == "__main__":
    try:
        _sample_forever()
    except (BrokenPipeError, KeyboardInterrupt):
        pass
