"""Assertions CI runs against ``--stats-json`` / ``--json`` artifacts.

The smoke jobs used to grep human-oriented CLI output ("10 from cache",
"100% hit rate") — brittle against copy changes and silent about *why* a
check failed.  Each subcommand here reads the machine-readable stats file
the CLI writes and asserts the same invariants explicitly:

* ``cache-stats FILE --expect cold|warm`` — a cold run computed every
  point (zero hits); a warm run served every point from the cache
  (hit rate 1.0, zero computed).
* ``digests-equal FILE FILE...`` — every stats file carries the same
  ``digest`` (the sharding-determinism gate for ``cluster-smoke``).
* ``fault-counters FILE`` — the exported fault-scenario JSON carries
  sane degradation counters for every system.
* ``chaos-stats FILE...`` — each chaos-soak record proves SIGKILL
  recovery was bit-identical (resumed digest == uninterrupted digest)
  and that the resume actually replayed checkpoints; with several files,
  they must all share one uninterrupted digest (worker-count parity).
* ``metrics-text FILE`` — the scraped ``/metrics`` exposition is valid
  Prometheus text and carries the service's required metric families.
* ``warm-speedup COLD WARM`` — the warm re-run of the same config hit
  the cache for (almost) every point and beat the cold run's wall time
  by at least ``--min-ratio`` (the data-plane warm-path gate).
* ``service-stats FILE`` — the ``service_smoke.py`` record proves the
  API served digests byte-equal to the direct CLI, deduped duplicate
  submissions, exited 0 on SIGTERM, and left none of its child
  processes (its slots' pool workers) alive.
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


def check_chaos_stats(args: argparse.Namespace) -> int:
    reference_digests = {}
    for path in args.files:
        record = _load(path)
        if not record.get("digests_equal"):
            return _fail(
                f"{path}: resumed digest {record.get('resumed_digest')} != "
                f"uninterrupted {record.get('uninterrupted_digest')}"
            )
        if record["resumed_digest"] != record["uninterrupted_digest"]:
            return _fail(f"{path}: digests_equal flag lies: {record}")
        if record.get("resumed_from_epoch", 0) < 1:
            return _fail(
                f"{path}: resume started from epoch "
                f"{record.get('resumed_from_epoch')} — no checkpoint was "
                f"actually replayed"
            )
        if not record.get("killed"):
            # Still digest-identical, but the soak lost its teeth; note it
            # loudly so a chronically-too-fast victim gets retuned.
            print(f"WARN: {path}: victim finished before the SIGKILL; "
                  f"resume was a full checkpoint replay")
        if not record.get("resilience_curve"):
            return _fail(f"{path}: no per-epoch resilience curve recorded")
        reference_digests[path] = record["uninterrupted_digest"]
    if len(set(reference_digests.values())) != 1:
        lines = "\n".join(f"  {p}: {d}" for p, d in reference_digests.items())
        return _fail(
            f"uninterrupted digests differ across worker counts:\n{lines}"
        )
    print(f"OK: {len(args.files)} chaos record(s), recovery bit-identical, "
          f"shared digest {next(iter(reference_digests.values()))[:16]}…")
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


def check_service_stats(args: argparse.Namespace) -> int:
    record = _load(args.file)
    for flag in ("dedupe_same_id", "dedupe_not_recreated",
                 "sweep_digests_equal", "cluster_digests_equal"):
        if not record.get(flag):
            return _fail(
                f"{args.file}: {flag} is {record.get(flag)!r} "
                f"(sweep {record.get('sweep_digest_service')} vs "
                f"{record.get('sweep_digest_cli')}, cluster "
                f"{record.get('cluster_digest_service')} vs "
                f"{record.get('cluster_digest_cli')})"
            )
    if record.get("server_exit") != 0:
        return _fail(
            f"{args.file}: server exited {record.get('server_exit')} on "
            f"SIGTERM, wanted 0; log tail:\n{record.get('server_log_tail')}"
        )
    if record.get("server_children", 0) < 1:
        return _fail(
            f"{args.file}: no child process of the server was seen before "
            "SIGTERM, so its slot pools were not checked"
        )
    if record.get("children_alive_after_exit") != 0:
        return _fail(
            f"{args.file}: {record.get('children_alive_after_exit')} of the "
            f"server's {record['server_children']} child process(es) outlived it"
        )
    if record.get("soak") and record.get("storm_unique_ids") != 1:
        return _fail(
            f"{args.file}: duplicate storm produced "
            f"{record.get('storm_unique_ids')} job id(s), wanted 1"
        )
    if not record.get("ok"):
        return _fail(f"{args.file}: record not ok: {record}")
    print(f"OK: {args.file}: service digests match CLI "
          f"(sweep {record['sweep_digest_service'][:16]}…, "
          f"cluster {record['cluster_digest_service'][:16]}…), "
          f"dedupe held, server exit 0, none of its "
          f"{record['server_children']} child process(es) left")
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

    p = sub.add_parser("chaos-stats",
                       help="assert SIGKILL-and-resume digest parity")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=check_chaos_stats)

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

    p = sub.add_parser("service-stats",
                       help="assert the service-smoke record's invariants")
    p.add_argument("file")
    p.set_defaults(func=check_service_stats)

    p = sub.add_parser("trace-ticks",
                       help="assert a Perfetto trace holds agent ticks")
    p.add_argument("file")
    p.set_defaults(func=check_trace_ticks)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
