"""Telemetry timings record: off, explicitly off, and on.

The tracer hooks are compiled into the hot paths of
:class:`~repro.cluster.server.ServerSimulation` (arrival, enqueue,
dispatch, segment completion, lend/reclaim, batch units).  When telemetry
is off each hook calls the server's ``emit``, which is then an empty
module-level function.  This benchmark times the same simulation three
ways —

* ``telemetry=None`` (the pre-telemetry spelling),
* ``TelemetryConfig(enabled=False)`` (explicit off),
* ``TelemetryConfig(enabled=True)`` (full tracing),

— interleaves them over ``--repeats`` rounds (see
:mod:`benchmarks._timing`), keeps the best wall-clock of each, and
records the wall-clocks and their ratios to ``telemetry=None`` under
``bench_results/BENCH_telemetry_overhead.json``.

Its one gate is that every run's ``sweep_results_digest`` is the same:
telemetry never changes results.  No timing is gated.  Both disabled
spellings build the same server, whose hooks all call the empty
function, so their ratio times one code path against itself and
measures only host noise.  ``test_disabled_config_allocates_nothing`` in
``tests/test_telemetry.py`` checks that property directly.

Usage::

    PYTHONPATH=src python benchmarks/telemetry_overhead.py [--horizon-ms 60]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.config import SimulationConfig, TelemetryConfig
from repro.core import hardharvest_block, run_server
from repro.core.export import sweep_results_digest

from _timing import best_wall, digest_gate, interleaved_rounds, timed, write_record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon-ms", type=float, default=60.0)
    parser.add_argument("--accesses", type=int, default=6)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs per configuration (min is kept)")
    parser.add_argument("--out", default=None,
                        help="output path (default bench_results/BENCH_telemetry_overhead.json)")
    args = parser.parse_args(argv)

    system = hardharvest_block()
    base = SimulationConfig(
        horizon_ms=args.horizon_ms,
        warmup_ms=args.horizon_ms / 5,
        accesses_per_segment=args.accesses,
    )

    configs = {
        "none": base,
        "off": replace(base, telemetry=TelemetryConfig(enabled=False)),
        "on": replace(base, telemetry=TelemetryConfig(enabled=True)),
    }
    samples = interleaved_rounds(
        [
            (name, timed(lambda cfg=cfg: run_server(system, cfg)))
            for name, cfg in configs.items()
        ],
        args.repeats,
    )
    # Each run's result becomes its digest after the timing.
    for runs in samples.values():
        for s in runs:
            s.value = sweep_results_digest({"run": s.value})
    digest, digests_equal = digest_gate(samples)
    wall = {name: best_wall(runs) for name, runs in samples.items()}
    return write_record(
        "telemetry_overhead",
        config={"horizon_ms": args.horizon_ms, "accesses": args.accesses,
                "repeats": args.repeats},
        end_to_end={
            "telemetry_none_s": round(wall["none"], 4),
            "telemetry_off_s": round(wall["off"], 4),
            "telemetry_on_s": round(wall["on"], 4),
            "disabled_ratio": round(wall["off"] / wall["none"], 4),
            "enabled_ratio": round(wall["on"] / wall["none"], 4),
        },
        digest=digest,
        gates={"digests_equal": digests_equal},
        out=args.out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
