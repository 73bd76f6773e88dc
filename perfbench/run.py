"""Run one benchmark workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload cluster-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload cluster-warm --seed 1 --trace 1
    python3 perfbench/run.py --steady --workload service-sweep --runs 10

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the gated end-to-end metrics untraced, every per-layer metric traced).
Each run also writes a record under ``.perfbench/records/``.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.abspath(__file__)
RECORDS = os.path.join(ROOT, ".perfbench", "records")

#: Set-up is timed in fresh interpreters.  Short set-ups discard one
#: warm-up launch (cold bytecode and page cache) and report the median
#: of several; cluster-warm's set-up is one long cold run that fills the
#: cache the run then reads.
SETUP_LAUNCHES = {
    # workload: (discarded, measured)
    "cluster-cold": (1, 9),
    "cluster-warm": (0, 1),
    "service-sweep": (1, 5),
}


def parse_args(argv=None) -> argparse.Namespace:
    from perfbench import metrics

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--record", default=None,
                        help="where to write the run record (JSON)")
    parser.add_argument("--steady", action="store_true",
                        help="run two interleaved sets and compare them")
    parser.add_argument("--runs", type=int, default=10,
                        help="--steady: runs per set")
    parser.add_argument("--held-out-seed", type=int, default=None,
                        help="--steady: one more pair on a seed kept out "
                             "of tuning")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def source_id():
    """The checkout's commit (``git rev-parse HEAD``), or None outside git."""
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any child it has waited for
    (set-up probes, pool workers, the server and its workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_setup(args, work_dir: str, env) -> tuple:
    """Seconds from launching a fresh interpreter to its ``ready`` line,
    per measured launch (normalized and wall), and what the last launch
    reported."""
    from perfbench import hostspeed

    discarded, measured = (0, 1) if args.trace else SETUP_LAUNCHES[args.workload]
    stamps, infos = [], []
    sampler = hostspeed.Sampler()
    try:
        for launch in range(discarded + measured):
            launch_dir = os.path.join(work_dir, f"setup-{launch}")
            os.makedirs(launch_dir)
            cmd = [sys.executable, SCRIPT, "--setup-only", "--workload",
                   args.workload, "--seed", str(args.seed), "--work-dir", launch_dir]
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                    env=env, cwd=ROOT)
            ready = None
            for line in proc.stdout:
                if line.startswith("ready "):
                    ready = time.monotonic()
                    info = json.loads(line[len("ready "):])
                    break
            proc.stdout.read()
            code = proc.wait()
            if ready is None or code != 0:
                raise RuntimeError(f"set-up launch failed with exit code {code}")
            if launch >= discarded:
                stamps.append((start, ready))
                infos.append(info)
        norm = [sampler.normalize(start, ready) for start, ready in stamps]
    finally:
        sampler.stop()
    return norm, [ready - start for start, ready in stamps], infos


def write_record(args, out, calib, path) -> None:
    from repro import __version__
    from perfbench import metrics

    def entries(values):
        return {
            name: metrics.metric_entry(value, metrics.unit_of(name), n)
            for name, (value, n) in values.items()
        }

    record = {
        "commit": source_id(),
        "version": __version__,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "end_to_end": entries(out.end_to_end),
        "end_to_end_wall": entries(out.wall),
        "layers": entries(out.layers),
        "digest": out.digest,
        "host.calib_ms": calib,
        "samples": out.samples,
        "checks": [
            {"name": name, "ok": ok, "detail": detail}
            for name, ok, detail in out.checks
        ],
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)


def report(args, out, record_path) -> None:
    from perfbench import metrics

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    rows = out.layers if args.trace else out.end_to_end
    print(f"  {'metric':34s} {'value':>14s} {'wall':>14s} {'unit':6s} {'n':>6s}")
    for name, (value, n) in rows.items():
        wall = f"{out.wall[name][0]:14.6g}" if name in out.wall else " " * 14
        print(f"  {name:34s} {value:14.6g} {wall} {metrics.unit_of(name):6s} {n:6d}")
    for name, ok, detail in out.checks:
        print(f"  check {name:40s} {'ok' if ok else 'FAILED'}"
              + (f"  ({detail})" if detail and not ok else ""))
    print(f"  digest {out.digest}")
    print(f"  record {os.path.relpath(record_path, ROOT)}")


def setup_only(args) -> int:
    from perfbench import scenarios

    ctx = scenarios.Context(ROOT, args.work_dir, args.workload, args.seed,
                            args.seconds, False)
    info, cleanup = scenarios.probe(ctx)
    print("ready " + json.dumps(info), flush=True)
    cleanup()
    return 0


def run(args) -> int:
    from perfbench import metrics, scenarios

    work_dir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        calib_before = scenarios.calibrate()
        setup_times, setup_wall, infos = measure_setup(
            args, work_dir, scenarios.child_env(ROOT))
        ctx = scenarios.Context(ROOT, work_dir, args.workload, args.seed,
                                args.seconds, bool(args.trace), setup_info=infos)
        out = scenarios.RUNNERS[args.workload](ctx)
        calib = (calib_before + scenarios.calibrate()) / 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    out.end_to_end["setup_s"] = (statistics.median(setup_times), len(setup_times))
    out.wall["setup_s"] = (statistics.median(setup_wall), len(setup_wall))
    out.samples.update(setup_s=setup_times, setup_wall_s=setup_wall)
    out.end_to_end["peak_rss_mb"] = (peak_rss_mb(), 1)
    out.end_to_end["fail_frac"] = (out.failed / max(out.attempted, 1), out.attempted)
    out.layers["host.calib_ms"] = (calib, 2)
    record_path = args.record or os.path.join(
        RECORDS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json")
    write_record(args, out, calib, record_path)
    report(args, out, record_path)

    names = list(metrics.LAYERS) if args.trace else list(metrics.GATED)
    values = out.layers if args.trace else out.end_to_end
    missing = [name for name in names if name not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(values[name][0]), "unit": metrics.unit_of(name)}
            for name in names
        },
    }))
    return 0 if out.correct else 1


def main(argv=None) -> int:
    sys.path[0] = ROOT
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: {ROOT} has no src/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(ROOT, "src"))
    if args.steady:
        from perfbench import steady

        return steady.main(args, SCRIPT)
    if args.setup_only:
        return setup_only(args)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
