"""Golden digests of small cluster runs with starved servers.

``golden_cluster_digests.json`` pins cluster runs in which every server
receives Primary work.  The cases here route fewer requests than there
are servers, so some server-epochs get no Primary arrivals at all.  Such
a server ends at its epoch's horizon: its batch rate and busy cores
cover the epoch, as its loaded peers' do, and the rebalancer reads them
at the barrier.  Each case pins the run's digest; :func:`run_case` also
returns the witnesses a test checks, so a pin cannot go stale by
silently losing its starved server.

Regenerate (only when intentionally changing simulation behaviour)::

    PYTHONPATH=src python tests/_starved_cluster_golden.py --write
"""

from __future__ import annotations

import json
import os
from typing import Dict, Tuple

from repro.cluster_scale import ClusterScaleConfig, RoutingPolicy, run_cluster_scale
from repro.config import SimulationConfig
from repro.core.presets import hardharvest_block, harvest_block

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_starved_cluster.json"
)

_SIM = SimulationConfig(accesses_per_segment=2, seed=7)
#: 3 routed requests over 4 servers: every server runs at the load floor.
_CFG = ClusterScaleConfig(servers=4, requests=3, epochs=2, epoch_ms=10.0,
                          warmup_ms=2.0, routing=RoutingPolicy.POWER_OF_TWO)

#: Case -> (system factory, simulation, cluster config).  SW is
#: SmartHarvest, whose agent ticks forever, so a starved SW server never
#: runs out of events either.
CASES = {
    "hardharvest_p2c_starved_s7": (hardharvest_block, _SIM, _CFG),
    "sw_p2c_starved_s7": (harvest_block, _SIM, _CFG),
}


def run_case(name: str) -> Tuple[str, int, int, bool]:
    """``(digest, starved, loaded, spans_ok)``: the run's digest, its
    server-epochs with and without Primary arrivals, and whether every
    starved one simulated exactly its epoch."""
    factory, sim, cfg = CASES[name]
    result = run_cluster_scale(factory(), sim, cfg)
    servers = [s for epoch in result.epochs for s in epoch.cluster.servers]
    starved = [s for s in servers
               if s.counters.get("requests_arrived", 0) == 0]
    spans_ok = all(s.simulated_seconds == cfg.epoch_ms / 1e3 for s in starved)
    return (result.digest(), len(starved), len(servers) - len(starved),
            spans_ok)


def compute_all() -> Dict[str, str]:
    return {name: run_case(name)[0] for name in CASES}


def load_golden() -> Dict[str, str]:
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
