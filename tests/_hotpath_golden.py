"""Shared golden-digest machinery for the fast-path parity suites.

The digest of a run is the sha256 of the canonical JSON of its full
:class:`~repro.core.metrics.ServerResult` — every latency percentile,
hit rate, counter, and resilience metric participates, so *any* numeric
perturbation introduced by a hot-path change flips the digest.

``tests/data/golden_hotpath.json`` pins the digests produced by the
original (pre-fast-path) per-access implementation; the parity tests
assert that the batched memory walk and the batched scheduler reproduce
them bit-for-bit.  Regenerate with::

    PYTHONPATH=src python tests/_hotpath_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

from repro.config import SimulationConfig, TelemetryConfig
from repro.core.experiment import run_server
from repro.core.export import server_result_to_dict
from repro.core.presets import harvest_block, hardharvest_block
from repro.faults.scenarios import get_scenario
from repro.parallel.cache import canonical_json

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_hotpath.json")

#: The two harvesting worlds the fast path must reproduce exactly: the
#: software stack (per-core steering, full flush) and the paper's hardware
#: stack (QM subqueues, harvest-region flush, HardHarvest replacement).
SYSTEMS = {
    "SW": harvest_block,
    "HardHarvest": hardharvest_block,
}
SEEDS = (0, 1, 2)

#: Small but non-trivial: long enough for lends/reclaims/flushes and LLC
#: pressure, short enough for the suite to stay fast.
_BASE_SIM = dict(horizon_ms=30.0, warmup_ms=6.0, accesses_per_segment=12)

#: Configuration variants pinned beyond the plain seeds: one faulted run
#: per system (resilience metrics participate in the digest) and one
#: telemetry-enabled run per system (telemetry's zero-perturbation
#: contract means its digest must equal the plain seed-0 one — the pin
#: catches any probe or tracer that starts leaking into results).
_FAULT_SCENARIO = "crash-storm"
VARIANTS = ("", _FAULT_SCENARIO, "telemetry")


def _simcfg(seed: int, variant: str = "") -> SimulationConfig:
    cfg = SimulationConfig(seed=seed, **_BASE_SIM)
    if variant == _FAULT_SCENARIO:
        scenario = get_scenario(_FAULT_SCENARIO, _BASE_SIM["horizon_ms"])
        cfg = replace(cfg, faults=scenario.schedule, client=scenario.client)
    elif variant == "telemetry":
        cfg = replace(cfg, telemetry=TelemetryConfig(enabled=True))
    elif variant:
        raise ValueError(f"unknown golden variant {variant!r}")
    return cfg


def run_digest(system_key: str, seed: int, variant: str = "") -> str:
    """Run one pinned configuration and return its result digest."""
    system = SYSTEMS[system_key]()
    result = run_server(system, _simcfg(seed, variant))
    payload = canonical_json(server_result_to_dict(result))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def all_cases():
    for system_key in SYSTEMS:
        for seed in SEEDS:
            yield system_key, seed, ""
    # Resilience and telemetry: one seed per system keeps them affordable.
    for system_key in SYSTEMS:
        yield system_key, 0, _FAULT_SCENARIO
    for system_key in SYSTEMS:
        yield system_key, 0, "telemetry"


def case_label(system_key: str, seed: int, variant: str = "") -> str:
    return f"{system_key}/seed{seed}" + (f"/{variant}" if variant else "")


def compute_all() -> dict:
    return {
        case_label(sk, seed, variant): run_digest(sk, seed, variant)
        for sk, seed, variant in all_cases()
    }


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true",
                        help="overwrite the pinned golden digests")
    args = parser.parse_args()
    digests = compute_all()
    print(json.dumps(digests, indent=2))
    if args.write:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {GOLDEN_PATH}")
