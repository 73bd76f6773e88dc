"""Assertions CI runs against ``--stats-json`` / ``--json`` artifacts and
benchmark records.

The smoke jobs used to grep human-oriented CLI output ("10 from cache",
"100% hit rate") — brittle against copy changes and silent about *why* a
check failed.  Each subcommand here reads the machine-readable stats file
the CLI writes and asserts the same invariants explicitly:

* ``cache-stats FILE --expect cold|warm`` — a cold run computed every
  point (zero hits); a warm run served every point from the cache
  (hit rate 1.0, zero computed).
* ``digests-equal FILE FILE...`` — every stats file or benchmark record
  carries the same ``digest`` (the sharding-determinism gate for
  ``cluster-smoke``, worker-count parity for ``chaos-smoke``).
* ``fault-counters FILE`` — the exported fault-scenario JSON carries
  sane degradation counters for every system.
* ``records-ok FILE...`` — each benchmark record
  (``benchmarks/_timing.write_record``) says ``ok: true``, which its
  script sets only when every one of its gates passed.
* ``metrics-text FILE`` — the scraped ``/metrics`` exposition is valid
  Prometheus text and carries the service's required metric families.
* ``warm-speedup COLD WARM`` — the warm re-run of the same config hit
  the cache for (almost) every point and beat the cold run's wall time
  by at least ``--min-ratio`` (the data-plane warm-path gate).
* ``trace-ticks FILE`` — an exported Perfetto ``trace.json`` holds the
  software agent's ticks on its server track.

Exit code 0 on success; 1 with a diagnostic on the first violated
invariant.
"""

from __future__ import annotations

import argparse
import json
import re
import sys


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def check_cache_stats(args: argparse.Namespace) -> int:
    stats = _load(args.file)
    cache = stats.get("cache")
    if cache is None:
        return _fail(f"{args.file}: run recorded no cache statistics")
    if args.expect == "cold":
        if cache["hits"] != 0:
            return _fail(f"cold run had {cache['hits']} cache hit(s): {cache}")
        if stats.get("computed", stats.get("points")) in (0, None):
            return _fail(f"cold run computed nothing: {stats}")
    else:  # warm
        if cache["hit_rate"] != 1.0:
            return _fail(
                f"warm run hit rate {cache['hit_rate']}, wanted 1.0: {cache}"
            )
        if stats.get("computed", 0) != 0:
            return _fail(
                f"warm run recomputed {stats['computed']} point(s): {stats}"
            )
        if stats.get("from_cache", 0) == 0 and "from_cache" in stats:
            return _fail(f"warm run served nothing from cache: {stats}")
    print(f"OK [{args.expect}] {args.file}: {cache}")
    return 0


def check_digests_equal(args: argparse.Namespace) -> int:
    digests = {}
    for path in args.files:
        stats = _load(path)
        digest = stats.get("digest")
        if not digest:
            return _fail(f"{path}: no digest recorded")
        digests[path] = digest
    values = set(digests.values())
    if len(values) != 1:
        lines = "\n".join(f"  {p}: {d}" for p, d in digests.items())
        return _fail(f"digests differ across runs:\n{lines}")
    print(f"OK: {len(digests)} run(s) share digest {values.pop()}")
    return 0


def check_fault_counters(args: argparse.Namespace) -> int:
    results = _load(args.file)
    expected = set(args.systems.split(",")) if args.systems else None
    if expected is not None and set(results) != expected:
        return _fail(f"systems {sorted(results)} != expected {sorted(expected)}")
    for name, result in results.items():
        res = result["resilience"]
        if res["retry_amplification"] < 1.0:
            return _fail(f"{name}: retry_amplification {res} < 1.0")
        if not 0.0 < res["goodput"] <= 1.0:
            return _fail(f"{name}: goodput out of range: {res}")
        if res["retries"] <= 0:
            return _fail(f"{name}: no retries recorded: {res}")
        counters = result["counters"]
        if counters.get("faults_crashes") != args.crashes:
            return _fail(
                f"{name}: faults_crashes {counters.get('faults_crashes')} "
                f"!= {args.crashes}"
            )
        if counters.get("faults_restarts") != args.crashes:
            return _fail(
                f"{name}: faults_restarts {counters.get('faults_restarts')} "
                f"!= {args.crashes}"
            )
    print("fault counters OK:",
          {n: r["resilience"]["goodput"] for n, r in results.items()})
    return 0


def check_records_ok(args: argparse.Namespace) -> int:
    for path in args.files:
        record = _load(path)
        failed = {name: gate for name, gate in record["gates"].items()
                  if not gate["ok"]}
        if failed or record["ok"] is not True:
            return _fail(f"{path}: record not ok; failed gate(s): {failed}")
        print(f"OK: {path}: {record['benchmark']}, "
              f"{len(record['gates'])} gate(s) passed")
    return 0


#: One valid line of Prometheus text exposition: a HELP/TYPE comment or
#: ``name{labels} value``.  Matches the regex the service tests use.
_METRIC_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+(inf|nan)?)$"
)

#: Metric families the service must always expose, whatever its state.
_REQUIRED_METRICS = (
    "repro_service_queue_depth",
    "repro_service_jobs{state=",
    "repro_service_workers",
    "repro_service_jobs_evicted_total",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
)


def check_warm_speedup(args: argparse.Namespace) -> int:
    cold = _load(args.cold)
    warm = _load(args.warm)
    cache = warm.get("cache")
    if cache is None:
        return _fail(f"{args.warm}: warm run recorded no cache statistics")
    if cache.get("hit_rate", 0.0) < args.min_hit_rate:
        return _fail(
            f"{args.warm}: warm hit rate {cache.get('hit_rate')} < "
            f"{args.min_hit_rate}: {cache}"
        )
    for path, stats in ((args.cold, cold), (args.warm, warm)):
        if not stats.get("elapsed_s"):
            return _fail(f"{path}: no elapsed_s recorded")
    ratio = cold["elapsed_s"] / warm["elapsed_s"]
    if ratio < args.min_ratio:
        return _fail(
            f"warm run only {ratio:.2f}x faster than cold "
            f"({cold['elapsed_s']:.2f}s -> {warm['elapsed_s']:.2f}s), "
            f"wanted >= {args.min_ratio}x"
        )
    if cold.get("digest") and cold.get("digest") != warm.get("digest"):
        return _fail(
            f"warm digest {warm.get('digest')} != cold {cold['digest']}"
        )
    print(f"OK: warm {ratio:.1f}x faster than cold "
          f"({cold['elapsed_s']:.2f}s -> {warm['elapsed_s']:.2f}s), "
          f"hit rate {cache['hit_rate']:.3f}, digests match")
    return 0


def check_metrics_text(args: argparse.Namespace) -> int:
    with open(args.file) as fh:
        text = fh.read()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return _fail(f"{args.file}: empty metrics exposition")
    for line in lines:
        if not _METRIC_LINE.match(line):
            return _fail(f"{args.file}: invalid exposition line: {line!r}")
    for required in _REQUIRED_METRICS:
        if required not in text:
            return _fail(f"{args.file}: missing metric family {required!r}")
    samples = sum(1 for line in lines if not line.startswith("#"))
    print(f"OK: {args.file}: {samples} sample(s), all lines valid, "
          f"{len(_REQUIRED_METRICS)} required families present")
    return 0


def check_trace_ticks(args: argparse.Namespace) -> int:
    events = _load(args.file).get("traceEvents", [])
    ticks = [ev for ev in events
             if ev.get("ph") == "i" and ev.get("name") == "agent tick"]
    if not ticks:
        return _fail(f"{args.file}: no agent tick on the server track")
    print(f"OK: {args.file}: {len(ticks)} agent tick(s) on the server track")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cache-stats", help="assert cold/warm cache behavior")
    p.add_argument("file")
    p.add_argument("--expect", choices=["cold", "warm"], required=True)
    p.set_defaults(func=check_cache_stats)

    p = sub.add_parser("digests-equal",
                       help="assert all stats files share one digest")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=check_digests_equal)

    p = sub.add_parser("fault-counters",
                       help="assert degradation counters in faults JSON")
    p.add_argument("file")
    p.add_argument("--systems", default="NoHarvest,HardHarvest-Block",
                   help="comma-separated expected system names")
    p.add_argument("--crashes", type=int, default=3,
                   help="expected crash/restart count per system")
    p.set_defaults(func=check_fault_counters)

    p = sub.add_parser("records-ok",
                       help="assert benchmark records passed every gate")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=check_records_ok)

    p = sub.add_parser("warm-speedup",
                       help="assert warm-run hit rate + wall-time ratio")
    p.add_argument("cold")
    p.add_argument("warm")
    p.add_argument("--min-hit-rate", type=float, default=0.99)
    p.add_argument("--min-ratio", type=float, default=3.0)
    p.set_defaults(func=check_warm_speedup)

    p = sub.add_parser("metrics-text",
                       help="validate a scraped /metrics exposition")
    p.add_argument("file")
    p.set_defaults(func=check_metrics_text)

    p = sub.add_parser("trace-ticks",
                       help="assert a Perfetto trace holds agent ticks")
    p.add_argument("file")
    p.set_defaults(func=check_trace_ticks)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
