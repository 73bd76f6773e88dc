"""Shared measurement machinery for the speedup/overhead benchmarks.

Every benchmark in this directory follows the same methodology, extracted
here so the scripts stay thin and measure the same way:

* **Interleaved rounds.** Comparing modes A/B/C as A,B,C,A,B,C (instead
  of A,A,B,B,C,C) cancels CPU-frequency drift on throttling hosts: every
  mode samples every thermal regime.
* **Best-of-N.** The minimum over rounds rejects scheduler preemption and
  GC pauses — those only ever make a sample slower.
* **CPU time headline.** ``time.process_time`` is immune to the process
  being descheduled; wall time is recorded alongside for context.
* **Digest guards.** A speedup between modes is only meaningful if the
  modes computed the same thing; every run reports the digest of its full
  result and :func:`require_same_digest` aborts the benchmark on any
  divergence, so a reported number can never come from a behavioral
  shortcut.
* **Pinned baseline.** The speedup benchmarks time the current tree
  against :data:`BASELINE_COMMIT`, unpacked by :func:`baseline_src`:
  each run is one ``benchmarks/_driver.py`` process
  (:func:`run_driver`) importing ``repro`` from the tree under test, so
  both sides are timed by the same code.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: The timing baseline: the last commit that still carries the in-tree
#: reference implementations the speedup benchmarks divide by, selected
#: there by :data:`BASELINE_SWITCHES`.  Its results are bit-identical to
#: the current tree's, so every digest guard still holds across the two.
BASELINE_COMMIT = "4e2a39eaaa188872b9ff6fbdf6f877076658d1f8"

#: Environment switches that exist at :data:`BASELINE_COMMIT` (each set to
#: "1" selects one reference implementation).  :func:`run_driver` clears
#: them before applying a mode's own, so an inherited value never leaks
#: into a run.
BASELINE_SWITCHES = (
    "REPRO_MEM_SLOWPATH",
    "REPRO_SCHED_SLOWPATH",
    "REPRO_DATAPLANE_SLOWPATH",
)

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.dirname(_HERE)
_DRIVER = os.path.join(_HERE, "_driver.py")

#: The current tree's sources, the other side of every ratio.
HEAD_SRC = os.path.join(_REPO, "src")


class Sample:
    """One timed run: wall seconds, CPU seconds, and the run's value
    (the result digest of a :func:`driver` run, whatever the function of
    a :func:`timed` mode returned)."""

    __slots__ = ("wall", "cpu", "value")

    def __init__(self, wall: float, cpu: float, value):
        self.wall = wall
        self.cpu = cpu
        self.value = value


@contextlib.contextmanager
def baseline_src() -> Iterator[str]:
    """Unpack ``git archive BASELINE_COMMIT src`` into a temp dir; yields
    the path of its ``src`` (removed on exit).

    Exits non-zero, naming the commit, when this clone does not hold it
    (a shallow CI checkout needs ``fetch-depth: 0``).
    """
    archive = subprocess.run(
        ["git", "-C", _REPO, "archive", BASELINE_COMMIT, "src"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    if archive.returncode != 0:
        raise SystemExit(
            f"baseline commit {BASELINE_COMMIT} is not in this clone "
            f"({archive.stderr.decode(errors='replace').strip()}); "
            "fetch the full history (e.g. actions/checkout with "
            "fetch-depth: 0)"
        )
    tree = tempfile.mkdtemp(prefix="repro-baseline.")
    try:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tree, filter="data")
            else:  # Python without extraction filters
                tar.extractall(tree)
        yield os.path.join(tree, "src")
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def run_driver(
    src: str, spec: dict, env: Optional[Dict[str, str]] = None
) -> dict:
    """Run one ``benchmarks/_driver.py`` workload from the source tree
    ``src`` in a fresh interpreter; returns the record it prints.

    The child sees this process's environment minus
    :data:`BASELINE_SWITCHES`, plus ``env``, with ``PYTHONPATH`` set to
    ``src`` alone.
    """
    child_env = {
        k: v for k, v in os.environ.items() if k not in BASELINE_SWITCHES
    }
    child_env.update(env or {})
    child_env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, _DRIVER, src, json.dumps(spec)],
        env=child_env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def driver(
    src: str, spec: dict, env: Optional[Dict[str, str]] = None
) -> Callable[[], Sample]:
    """A mode for :func:`interleaved_rounds`: one :func:`run_driver` run,
    timed inside its own process."""
    def sample() -> Sample:
        record = run_driver(src, spec, env)
        return Sample(record["wall_s"], record["cpu_s"], record["digest"])

    return sample


def timed(fn: Callable[[], object]) -> Callable[[], Sample]:
    """A mode for :func:`interleaved_rounds`: ``fn`` run in this process
    under the standard clocks (after a GC sweep, so a previous run's
    garbage is not charged to this one)."""
    def sample() -> Sample:
        gc.collect()
        t0_wall, t0_cpu = time.perf_counter(), time.process_time()
        value = fn()
        wall = time.perf_counter() - t0_wall
        cpu = time.process_time() - t0_cpu
        return Sample(wall, cpu, value)

    return sample


def interleaved_rounds(
    modes: Sequence[Tuple[str, Callable[[], Sample]]],
    rounds: int,
    progress: Optional[Callable[[str], None]] = print,
) -> Dict[str, List[Sample]]:
    """Run every mode once per round, in order; returns samples per mode.

    A mode is ``(name, sampler)``: see :func:`timed` and :func:`driver`.
    """
    samples: Dict[str, List[Sample]] = {name: [] for name, _ in modes}
    for rnd in range(rounds):
        for name, sampler in modes:
            s = sampler()
            samples[name].append(s)
            if progress is not None:
                progress(
                    f"round {rnd} {name:15s} wall={s.wall:.3f}s cpu={s.cpu:.3f}s"
                )
    return samples


def best_cpu(samples: Iterable[Sample]) -> float:
    return min(s.cpu for s in samples)


def best_wall(samples: Iterable[Sample]) -> float:
    return min(s.wall for s in samples)


def require_same_digest(samples: Dict[str, List[Sample]]) -> str:
    """All modes must have produced one identical digest; returns it.

    Raises ``RuntimeError`` otherwise — the caller should let that abort
    the benchmark, because timing numbers for diverging computations are
    meaningless.
    """
    digests = {s.value for mode in samples.values() for s in mode}
    if len(digests) != 1:
        raise RuntimeError(
            f"benchmark modes produced different result digests: {sorted(digests)}"
        )
    return digests.pop()


def write_record(record: dict, filename: str, out: Optional[str] = None) -> str:
    """Write a benchmark record under ``bench_results/`` (or ``out``) and
    echo it; returns the path written."""
    out_dir = os.path.join(os.path.dirname(__file__), "..", "bench_results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = out or os.path.join(out_dir, filename)
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    return out_path
