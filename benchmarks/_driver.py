"""One timed workload run from a given source tree, for the speedup benchmarks.

``python benchmarks/_driver.py SRC SPEC_JSON`` imports ``repro`` from the
source tree ``SRC`` (which the caller puts on ``PYTHONPATH``; see
:func:`_timing.run_driver`), runs the workload ``SPEC_JSON`` describes
once, and prints one JSON line: ``wall_s`` and ``cpu_s`` of the run alone
(not interpreter start-up, imports or config building), the run's result
``digest``, and workload extras.  ``"warmups": n`` in the spec first runs
the workload ``n`` times untimed in the same process, so the timed run
sees the warmed interpreter a re-run inside one long-lived process would.

The current tree and the pinned baseline tree (``_timing.BASELINE_COMMIT``)
both run this same file, so both sides of every ratio are timed by the
same code.  It therefore uses only APIs that exist unchanged at the
baseline commit.

Workloads:

* ``server`` — ``run_server(hardharvest_block(), SimulationConfig(seed,
  horizon_ms, warmup_ms))``; the digest is the sha256 of the canonical
  JSON of the full result.
* ``cluster`` — ``run_cluster_scale`` of :func:`build_cluster`'s config
  with ``workers`` processes over a fresh ``ResultCache`` at
  ``cache_dir`` per run; the digest is the cluster result's own, and the
  extras carry the timed run's cache counters.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
import time


def build_cluster(spec: dict):
    """``(system, sim, cfg)`` for a ``cluster`` spec.

    ``spec["sim"]`` holds :class:`SimulationConfig` fields and
    ``spec["cluster"]`` :class:`ClusterScaleConfig` fields (``routing``
    by name); ``harvest_base``, when set, overrides the Harvest VM's
    base cores.
    """
    from dataclasses import replace

    from repro.cluster_scale import ClusterScaleConfig, RoutingPolicy
    from repro.config import SimulationConfig, SystemKind
    from repro.core.presets import build_system

    system = build_system(SystemKind(spec["system"]))
    if spec.get("harvest_base") is not None:
        system = replace(
            system,
            cluster=replace(
                system.cluster, harvest_vm_base_cores=spec["harvest_base"]
            ),
        )
    sim = SimulationConfig(**spec["sim"])
    cluster = dict(spec["cluster"])
    cluster["routing"] = RoutingPolicy(cluster["routing"])
    return system, sim, ClusterScaleConfig(**cluster)


def _server(spec: dict):
    from repro.config import SimulationConfig
    from repro.core.experiment import run_server
    from repro.core.export import server_result_to_dict
    from repro.core.presets import hardharvest_block
    from repro.parallel.cache import canonical_json

    system = hardharvest_block()
    sim = SimulationConfig(
        seed=spec["seed"],
        horizon_ms=spec["horizon_ms"],
        warmup_ms=spec["warmup_ms"],
    )

    def digest(result) -> str:
        text = canonical_json(server_result_to_dict(result))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    return lambda: run_server(system, sim), digest, lambda result: {}


def _cluster(spec: dict):
    from repro.cluster_scale import run_cluster_scale
    from repro.parallel.cache import ResultCache

    system, sim, cfg = build_cluster(spec)
    # A fresh cache per run, so every hit of the timed run goes through
    # key derivation and the disk entry, not the in-process LRU.
    caches = []

    def progress(message: str) -> None:
        print(f"[{time.strftime('%H:%M:%S')}] {message}", file=sys.stderr,
              flush=True)

    def run():
        caches.append(ResultCache(root=spec["cache_dir"]))
        return run_cluster_scale(
            system, sim, cfg, workers=spec["workers"], cache=caches[-1],
            progress=progress if spec.get("progress") else None,
        )

    return (
        run,
        lambda result: result.digest(),
        lambda result: {"cache": caches[-1].stats.as_dict()},
    )


WORKLOADS = {"server": _server, "cluster": _cluster}


def main(argv) -> int:
    src, spec = os.path.realpath(argv[1]), json.loads(argv[2])
    import repro

    # An installed (e.g. editable) copy of the package must not stand in
    # for the tree under test.
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        print(f"_driver: repro was imported from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    run, digest, extras = WORKLOADS[spec["workload"]](spec)
    for _ in range(spec.get("warmups", 0)):
        run()
    gc.collect()
    t0_wall, t0_cpu = time.perf_counter(), time.process_time()
    result = run()
    wall = time.perf_counter() - t0_wall
    cpu = time.process_time() - t0_cpu
    record = {"wall_s": wall, "cpu_s": cpu, "digest": digest(result)}
    record.update(extras(result))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
