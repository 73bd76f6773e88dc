"""Golden digests for the per-server engine paths the other pins miss.

``golden_hotpath.json`` pins plain seeds, one crash-storm run and one
telemetry run per system; ``golden_cluster_digests.json`` pins sharded
runs of the same two systems.  Neither reaches most of
``cluster/server.py``'s fault, client, overflow and agent branches, and
neither pins what the tracer records.  Each case here runs one such
path at a short horizon and pins the sha256 of the canonical JSON of its
:class:`~repro.core.metrics.ServerResult`; the telemetry cases also pin
the tracer's event stream and the probe columns.  Each case names the
witness that proves its path fired (a counter, a resilience figure or a
trace event kind), so a pin cannot go stale by silently skipping it.

Regenerate (only when intentionally changing simulation behaviour)::

    PYTHONPATH=src python tests/_server_paths_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from typing import Dict, Iterator, Tuple

from repro.config import ClusterConfig, SimulationConfig, TelemetryConfig
from repro.core.experiment import run_server_raw, summarize
from repro.core.export import server_result_to_dict
from repro.core.presets import (
    hardharvest_block,
    hardharvest_term,
    harvest_block,
    harvest_term,
    noharvest,
)
from repro.faults.scenarios import get_scenario, scenario_names
from repro.faults.spec import ClientPolicy, FaultKind, FaultSchedule, FaultSpec
from repro.parallel.cache import canonical_json
from repro.telemetry.tracer import AGENT_TICK, REQ_FAIL, SERVER_CRASH

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_server_paths.json"
)

_BASE_SIM = SimulationConfig(
    seed=0, horizon_ms=15.0, warmup_ms=3.0, accesses_per_segment=6
)

#: Systems by short key; "SW" and "HardHarvest" are the two Block worlds.
SYSTEMS = {
    "SW": harvest_block,
    "HardHarvest": hardharvest_block,
    "SW-Term": harvest_term,
    "HardHarvest-Term": hardharvest_term,
    "NoHarvest": noharvest,
}
BLOCK = ("SW", "HardHarvest")


def _two_harvest(system):
    # 8x4 Primary cores + 2x2 Harvest base cores = 36.
    return replace(
        system,
        cluster=ClusterConfig(harvest_vms_per_server=2, harvest_vm_base_cores=2),
    )


def _scenario(
    name: str, with_client: bool, base: SimulationConfig = _BASE_SIM
) -> SimulationConfig:
    scenario = get_scenario(name, base.horizon_ms)
    return replace(
        base,
        faults=scenario.schedule,
        client=scenario.client if with_client else None,
    )


_RQ_OVERFLOW = FaultSchedule(
    events=(
        FaultSpec(
            kind=FaultKind.RQ_CHUNK_FAIL,
            start_ms=0.0,
            duration_ms=_BASE_SIM.horizon_ms,
            magnitude=1.0,
        ),
    )
)

#: Witnesses: where a value is read from, and the name under it.  Each
#: must be positive (or present) in its case's run.
#:   ("counter", name)     ServerResult.counters[name] > 0
#:   ("resilience", name)  ServerResult.resilience[name] > 0
#:   ("event", kind)       kind occurs in the tracer's events
Witness = Tuple[str, str]


def _cases() -> Iterator[Tuple[str, str, Tuple[Witness, ...]]]:
    for name in scenario_names():
        for system_key in BLOCK:
            witnesses: Tuple[Witness, ...] = ()
            if name == "crash-storm":
                witnesses = (("counter", "faults_crashes"),)
            elif name == "packet-loss":
                witnesses = (("resilience", "hedges"),)
            yield f"scenario/{name}", system_key, witnesses
            lost: Tuple[Witness, ...] = ()
            if name in ("crash-storm", "packet-loss"):
                lost = (("counter", "requests_lost"),)
            yield f"scenario/{name}/no-client", system_key, lost
    for system_key in BLOCK:
        yield "admission-shed", system_key, (("counter", "admission_shed"),)
    yield "rq-overflow", "HardHarvest", (("counter", "queue_overflow_spills"),)
    yield "batch-done-reclaim", "HardHarvest", ()
    yield "adaptive", "HardHarvest", ()
    for system_key in BLOCK:
        yield "trace-driven", system_key, ()
        yield "two-harvest-vms", system_key, ()
    yield "plain", "SW-Term", ()
    yield "plain", "HardHarvest-Term", ()
    yield "plain", "NoHarvest", ()
    for system_key in BLOCK:
        yield "telemetry/crash-storm", system_key, (
            ("counter", "faults_crashes"),
            ("event", REQ_FAIL),
            ("event", SERVER_CRASH),
        )


def all_cases() -> Iterator[Tuple[str, str, Tuple[Witness, ...]]]:
    """Yield ``(variant, system_key, witnesses)`` for every pinned case.

    Every Harvest-Block case also witnesses SmartHarvest's emergency
    buffer (``buffer_borrows``), and its telemetry case the agent's tick.
    """
    for variant, system_key, witnesses in _cases():
        if system_key == "SW":
            witnesses += (("counter", "buffer_borrows"),)
            if variant.startswith("telemetry/"):
                witnesses += (("event", AGENT_TICK),)
        yield variant, system_key, witnesses


def case_label(variant: str, system_key: str) -> str:
    return f"{system_key}/{variant}"


def _config(variant: str, system_key: str):
    system = SYSTEMS[system_key]()
    sim = _BASE_SIM
    if variant.startswith("scenario/"):
        parts = variant.split("/")
        sim = _scenario(parts[1], with_client=len(parts) == 2)
    elif variant == "admission-shed":
        sim = replace(sim, client=ClientPolicy(admission_queue_depth=2))
    elif variant == "rq-overflow":
        sim = replace(sim, faults=_RQ_OVERFLOW, load_scale=8.0)
    elif variant == "batch-done-reclaim":
        # The smallest run found in which a batch unit ends on a loaned
        # core whose owner already has ready work, so ``_batch_unit_done``
        # starts the reclaim (3x-slowed cores back the queues up).
        base = replace(sim, seed=2, horizon_ms=30.0, warmup_ms=6.0)
        sim = _scenario("slow-cores", True, base)
    elif variant == "adaptive":
        system = replace(system, adaptive_trigger=True)
    elif variant == "trace-driven":
        sim = replace(sim, trace_driven=True)
    elif variant == "two-harvest-vms":
        system = _two_harvest(system)
    elif variant == "telemetry/crash-storm":
        sim = replace(
            _scenario("crash-storm", with_client=True),
            telemetry=TelemetryConfig(enabled=True),
        )
    elif variant != "plain":
        raise ValueError(f"unknown server-path variant {variant!r}")
    return system, sim


def _sha(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def run_case(variant: str, system_key: str) -> Tuple[Dict[str, str], Dict]:
    """Run one case: its digests, and the values its witnesses read.

    The digests are ``{"result": ...}``, plus ``"events"`` and
    ``"probes"`` when telemetry is on.
    """
    system, simcfg = _config(variant, system_key)
    sim = run_server_raw(system, simcfg)
    try:
        result = server_result_to_dict(summarize(sim))
        digests = {"result": _sha(result)}
        seen = {
            "counter": result["counters"],
            "resilience": result["resilience"],
            "event": {},
        }
        if sim.tracer is not None:
            events = sim.tracer.events()
            digests["events"] = _sha(events)
            digests["probes"] = _sha(sim.probes.columns())
            kinds: Dict[str, int] = {}
            for event in events:
                kinds[event[1]] = kinds.get(event[1], 0) + 1
            seen["event"] = kinds
    finally:
        sim.close()
    return digests, seen


def compute_all() -> Dict[str, Dict[str, str]]:
    return {
        case_label(variant, system_key): run_case(variant, system_key)[0]
        for variant, system_key, _ in all_cases()
    }


def load_golden() -> Dict[str, Dict[str, str]]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true",
                        help="overwrite the pinned golden digests")
    args = parser.parse_args()
    digests = compute_all()
    print(json.dumps(digests, indent=2, sort_keys=True))
    if args.write:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {GOLDEN_PATH}")
