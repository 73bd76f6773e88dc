"""Cases + generator for the job-id stability golden.

``tests/data/golden_job_ids.json`` pins the service job id
(:func:`repro.service.spec.job_content_id`) of a spread of representative
sweep and cluster job bodies.  A job id is the result-cache content hash
of the parsed request's identity, so the pins hold the whole front end
still: how a body's systems, seeds and simulation fields are read, how
ints and floats are normalized, which defaults fill omitted fields, and
how a cluster body expands into system, simulation and cluster configs.
A parser refactor must leave every pin byte-identical.

Ids are computed with ``ResultCache(version=GOLDEN_VERSION)``, not the
package version, so routine version bumps never move the pins; only a
change to what a body means should.  The pins were written under package
version 1.5.0 (``job_content_id`` then dropped an empty cache, which is
falsy, for one salted with the package version), so that is the string
they are held to.

Regenerate with ``PYTHONPATH=src python tests/_job_id_golden.py --write``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, Tuple

from repro.config import SimulationConfig
from repro.core.serialize import to_dict

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_job_ids.json"
)

#: The version string baked into every pinned id.
GOLDEN_VERSION = "1.5.0"

TINY = {"horizon_ms": 12.0, "warmup_ms": 2.0, "accesses_per_segment": 3}


def _sweep(**fields: Any) -> Dict[str, Any]:
    body = {"kind": "sweep", "systems": "NoHarvest", "seeds": "0..1",
            "simulation": dict(TINY)}
    body.update(fields)
    return body


def _cluster(cluster: Dict[str, Any], **fields: Any) -> Dict[str, Any]:
    body = {"kind": "cluster", "system": "HardHarvest-Block",
            "cluster": cluster, "simulation": dict(TINY)}
    body.update(fields)
    return body


def all_cases() -> Iterator[Tuple[str, Dict[str, Any]]]:
    """(label, job body) pairs spanning what a body can say."""
    yield "sweep/systems-all", _sweep(systems="all")
    yield "sweep/systems-comma", _sweep(systems="NoHarvest,HardHarvest-Block")
    yield "sweep/systems-list", _sweep(systems=["Harvest-Term", "NoHarvest"])
    yield "sweep/seeds-range", _sweep(seeds="0..1")
    yield "sweep/seeds-int", _sweep(seeds=3)
    yield "sweep/seeds-list", _sweep(seeds=[0, 2, 5])
    yield "sweep/seeds-omitted", {"kind": "sweep", "systems": "NoHarvest",
                                  "simulation": dict(TINY)}
    yield "sweep/sim-ints", _sweep(simulation={
        "horizon_ms": 12, "warmup_ms": 2, "accesses_per_segment": 3,
    })
    yield "sweep/sim-warmup-rule", _sweep(simulation={
        "horizon_ms": 40, "accesses_per_segment": 3,
    })
    yield "sweep/sim-defaults", {"kind": "sweep", "systems": "NoHarvest",
                                 "seeds": 0}
    yield "sweep/sim-load-suite", _sweep(simulation={
        **TINY, "load_scale": 1.5, "suite": "hotel",
        "requests_per_service": 500, "trace_driven": True,
    })
    yield "sweep/sim-serialized", _sweep(simulation=to_dict(SimulationConfig(
        horizon_ms=12.0, warmup_ms=2.0, accesses_per_segment=3, seed=4,
    )))
    yield "sweep/telemetry", _sweep(simulation={
        **TINY, "telemetry": {"enabled": True, "probe_interval_us": 100.0},
    })
    yield "sweep/workers", _sweep(workers=4)
    yield "cluster/nominal", _cluster({"servers": 3}, system="NoHarvest")
    yield "cluster/p2c-requests", _cluster(
        {"servers": 2, "requests": 800, "epochs": 2, "routing": "p2c"}
    )
    yield "cluster/crash-storm", _cluster(
        {"servers": 4, "requests": 1600, "epochs": 3, "routing": "p2c"},
        fault_plan="crash-storm",
    )
    yield "cluster/plan-in-cluster", _cluster(
        {"servers": 4, "requests": 1600, "epochs": 2,
         "fault_plan": "brownout-wave"},
    )
    yield "cluster/no-rebalance", _cluster(
        {"servers": 3, "requests": 900, "epochs": 2, "rebalance": False,
         "harvest_min_cores": 2, "harvest_max_cores": 3},
    )
    yield "cluster/epoch-fields", _cluster(
        {"servers": 2, "epochs": 2, "epoch_ms": 10, "warmup_ms": 1,
         "routing": "least-loaded", "rebalance_threshold": 0.1,
         "rebalance_max_moves": 2},
        system="Harvest-Block",
    )


def job_id(body: Dict[str, Any]) -> str:
    """The job id of one body under the golden version."""
    from repro.parallel.cache import ResultCache
    from repro.service.spec import job_content_id, parse_job_request

    cache = ResultCache(root="/nonexistent", version=GOLDEN_VERSION)
    return job_content_id(parse_job_request(body), cache=cache)


def compute_ids() -> Dict[str, str]:
    return {label: job_id(body) for label, body in all_cases()}


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    import sys

    ids = compute_ids()
    if "--write" in sys.argv:
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(ids, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {GOLDEN_PATH} ({len(ids)} pins)")
    else:
        print(json.dumps(ids, indent=2, sort_keys=True))
