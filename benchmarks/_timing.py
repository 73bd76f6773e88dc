"""Shared machinery of the benchmark scripts: how they measure, and the
one record they all write.

Every benchmark in this directory measures the same way:

* **Interleaved rounds.** Comparing modes A/B/C as A,B,C,A,B,C (instead
  of A,A,B,B,C,C) cancels CPU-frequency drift on throttling hosts: every
  mode samples every thermal regime.
* **Best-of-N.** The minimum over rounds rejects scheduler preemption and
  GC pauses — those only ever make a sample slower.
* **CPU time headline.** ``time.process_time`` is immune to the process
  being descheduled; wall time is recorded alongside for context.
* **Digest guards.** A speedup between modes is only meaningful if the
  modes computed the same thing; every run reports the digest of its full
  result, and :func:`digest_gate` makes "every run has one digest" a gate
  of the record, so a number from a behavioral shortcut never passes.
* **Pinned baseline.** The speedup benchmarks time the current tree
  against :data:`BASELINE_COMMIT`, unpacked by :func:`baseline_src`:
  each run is one ``benchmarks/_driver.py`` process
  (:func:`run_driver`) importing ``repro`` from the tree under test, so
  both sides are timed by the same code.

Every script ends in :func:`write_record`, which writes
``bench_results/BENCH_<benchmark>.json`` in one schema::

    {benchmark, commit, baseline_commit, version, cpus, python, config,
     end_to_end, digest, gates, ok, detail}

Each gate is ``{value, min, ok}`` for a numeric floor (made by
:func:`gate`) or ``{value, ok}`` for a condition, ``ok`` is the
conjunction of the gates, ``detail`` holds what no check reads, and the
script exits 1 exactly when ``ok`` is false.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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


def gate(value: Any, minimum: Optional[float] = None) -> Dict[str, Any]:
    """One gate of a record: a figure that passes at ``minimum`` or
    above, or, without a minimum, a condition that passes when true.
    Pass ``value`` at full precision: the gate records the figure it
    tested, and a rounded copy elsewhere in the record decides nothing."""
    if minimum is None:
        return {"value": bool(value), "ok": bool(value)}
    return {"value": value, "min": minimum, "ok": value >= minimum}


def digest_gate(samples: Dict[str, List[Sample]]) -> Tuple[str, Dict[str, Any]]:
    """The record's digest, the first mode's first run's, and the gate
    that every run of every mode reproduced it.  A divergence is printed
    with every digest seen."""
    digests = {s.value for runs in samples.values() for s in runs}
    if len(digests) != 1:
        print(f"modes produced different result digests: {sorted(digests)}",
              file=sys.stderr)
    return next(iter(samples.values()))[0].value, gate(len(digests) == 1)


def _commit() -> Optional[str]:
    """This checkout's ``git rev-parse HEAD``, with ``-dirty`` appended
    when ``src/`` or ``benchmarks/`` differ from it (the record then
    measured code no commit holds); None outside git."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", _REPO, *args],
            capture_output=True, text=True, check=True,
        ).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--", "src", "benchmarks")
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + "-dirty" if dirty else head


def write_record(
    benchmark: str,
    config: Dict[str, Any],
    end_to_end: Dict[str, Any],
    digest: Optional[str],
    gates: Dict[str, Dict[str, Any]],
    detail: Optional[Dict[str, Any]] = None,
    out: Optional[str] = None,
    baseline: bool = False,
) -> int:
    """Write one benchmark record and return the script's exit status:
    0 when every gate passed, else 1 (naming each failed gate).

    The record goes to ``out``, by default
    ``bench_results/BENCH_<benchmark>.json``.  It is stamped with this
    checkout's commit, the package version, the CPU count and the Python
    version, and with :data:`BASELINE_COMMIT` when ``baseline`` (the run
    timed that commit too).
    """
    import repro

    record = {
        "benchmark": benchmark,
        "commit": _commit(),
        "baseline_commit": BASELINE_COMMIT if baseline else None,
        "version": repro.__version__,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "config": config,
        "end_to_end": end_to_end,
        "digest": digest,
        "gates": gates,
        "ok": all(g["ok"] for g in gates.values()),
        "detail": detail or {},
    }
    path = out or os.path.join(_REPO, "bench_results", f"BENCH_{benchmark}.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    for name, failed in gates.items():
        if not failed["ok"]:
            print(f"FAIL: gate {name}: {failed}", file=sys.stderr)
    print(f"wrote {path} (ok: {str(record['ok']).lower()})")
    return 0 if record["ok"] else 1


def add_cluster_args(parser, requests: int, epoch_ms: float,
                     warmup_ms: float, accesses: int) -> None:
    """The cluster configuration flags of the cluster benchmarks, with
    the defaults that differ between them."""
    from repro.cluster_scale import ROUTING_POLICY_NAMES
    from repro.config import SystemKind

    parser.add_argument("--servers", type=int, default=128)
    parser.add_argument("--requests", type=int, default=requests,
                        help="requests routed across the whole run")
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--epoch-ms", type=float, default=epoch_ms)
    parser.add_argument("--warmup-ms", type=float, default=warmup_ms)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--routing", choices=sorted(ROUTING_POLICY_NAMES),
                        default="p2c")
    parser.add_argument("--system", default=SystemKind.HARDHARVEST_BLOCK.value,
                        choices=[k.value for k in SystemKind])
    parser.add_argument("--accesses", type=int, default=accesses)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--harvest-base", type=int, default=2,
                        help="harvest-VM base cores (headroom for rebalancing)")
    parser.add_argument("--harvest-max", type=int, default=4)


def cluster_spec(args) -> dict:
    """The ``cluster`` driver spec of :func:`add_cluster_args`' flags."""
    return {
        "workload": "cluster",
        "system": args.system,
        "harvest_base": args.harvest_base,
        "sim": {
            "seed": args.seed,
            "accesses_per_segment": args.accesses,
            "warmup_ms": args.warmup_ms,
        },
        "cluster": {
            "servers": args.servers,
            "requests": args.requests,
            "epochs": args.epochs,
            "epoch_ms": args.epoch_ms,
            "warmup_ms": args.warmup_ms,
            "routing": args.routing,
            "harvest_max_cores": args.harvest_max,
        },
    }
