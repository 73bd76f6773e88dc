"""Does the program's own load move the host-speed kernel?

    python3 perfbench/idle_busy.py --pairs 25

Alternates ``WINDOW_S`` with the host idle and ``WINDOW_S`` with two
processes running the simulator (small ``run_cluster_scale`` calls, the
work pool workers do) while a :class:`hostspeed.Sampler` samples the
kernel.  Each busy window's median kernel time is divided by the mean of
the idle windows on either side, so a change of the host's speed regime
rarely falls inside one comparison.  A busy/idle median near 1 means the
sampler measures how fast the host runs, not how busy the program keeps
it.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WINDOW_S = 2.0
#: Skip the start of each window: the busy processes finish the call
#: they are in, and the sampler's first sample may predate the switch.
SETTLE_S = 0.8
BUSY_PROCS = 2


def _busy(go, stop) -> None:
    import repro.cluster_scale as cluster_scale
    from perfbench import scenarios

    system, sim, cfg = scenarios.cross_config(7)
    while not stop.is_set():
        if go.wait(0.05):
            cluster_scale.run_cluster_scale(system, sim, cfg, workers=1)


def main(argv=None) -> int:
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from perfbench import hostspeed

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=25)
    args = parser.parse_args(argv)

    ctx = multiprocessing.get_context("fork")
    go, stop = ctx.Event(), ctx.Event()
    procs = [ctx.Process(target=_busy, args=(go, stop)) for _ in range(BUSY_PROCS)]
    for proc in procs:
        proc.start()
    sampler = hostspeed.Sampler()
    windows = []  # (idle start, busy start, busy end)
    try:
        for _ in range(args.pairs + 1):
            idle = time.monotonic()
            time.sleep(WINDOW_S)
            busy = time.monotonic()
            go.set()
            time.sleep(WINDOW_S)
            go.clear()
            windows.append((idle, busy, time.monotonic()))
    finally:
        stop.set()
        go.clear()
        for proc in procs:
            proc.join()
        sampler.stop()

    def median_ms(lo: float, hi: float) -> float:
        return statistics.median(ms for stamp, ms in sampler.samples
                                 if lo + SETTLE_S <= stamp <= hi)

    ratios = []
    for (idle, busy, end), (next_idle, next_busy, _) in zip(windows, windows[1:]):
        base = (median_ms(idle, busy) + median_ms(next_idle, next_busy)) / 2
        ratios.append(median_ms(busy, end) / base)
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    print(f"{len(ratios)} pairs: busy/idle kernel time median {q2:.3f}, "
          f"quartiles [{q1:.3f}, {q3:.3f}], range [{min(ratios):.3f}, {max(ratios):.3f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
