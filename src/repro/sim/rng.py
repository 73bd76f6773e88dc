"""Deterministic, named random-number streams.

Every stochastic component in the simulator (arrival processes, service-time
draws, footprint samplers, trace synthesis) pulls from its own named
substream so that:

* runs are reproducible given a master seed;
* adding a new consumer does not perturb the draws seen by existing ones
  (streams are independent, not interleaved);
* two systems under comparison (e.g. NoHarvest vs HardHarvest) can be driven
  by identical workload randomness while their internal randomness differs.

Streams are derived from the master seed and the stream name via
``numpy.random.SeedSequence`` with a stable hash of the name as spawn key.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


def _name_key(name: str) -> int:
    """Stable 32-bit key for a stream name (crc32; stable across runs)."""
    return zlib.crc32(name.encode("utf-8"))


#: Prime stride separating per-server seed spaces.  Documented as part of
#: the determinism contract: a server's entire RNG universe is a pure
#: function of ``(root seed, server_index)``, so any process — the serial
#: loop, a pool worker, a cluster-scale shard — reconstructs identical
#: streams from the config alone.
SERVER_SEED_STRIDE = 7919


def derive_server_seed(root_seed: int, server_index: int) -> int:
    """Seed for one simulated server's :class:`RngRegistry`.

    ``root_seed + SERVER_SEED_STRIDE * server_index`` — the historical
    formula used by :class:`repro.cluster.server.ServerSimulation` since
    the first release, now named so the cluster-scale sharding layer and
    the per-server engine provably agree on it.
    """
    return root_seed + SERVER_SEED_STRIDE * server_index


def derive_epoch_seed(root_seed: int, epoch: int) -> int:
    """Root seed for one epoch of a cluster-scale run.

    Epoch 0 is the *identity* (server ``i`` of a one-epoch nominal
    cluster-scale run is bit-for-bit ``run_server(system, sim,
    BATCH_JOBS[i % 8], server_index=i)``).  Later epochs re-key through
    :class:`numpy.random.SeedSequence` so each epoch draws fresh workload
    randomness that is still a pure function of ``(root seed, epoch)`` —
    independent of worker count, shard layout, and wall clock.
    """
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    if epoch == 0:
        return root_seed
    seq = np.random.SeedSequence(
        entropy=root_seed, spawn_key=(_name_key("cluster_scale.epoch"), epoch)
    )
    return int(seq.generate_state(1, dtype=np.uint64)[0])


class RngRegistry:
    """Factory for named, independent ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0):
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator object
        (so draws continue where they left off).
        """
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(_name_key(name),))
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *new* generator for ``name``, restarting its sequence."""
        self._streams.pop(name, None)
        return self.stream(name)

    def __contains__(self, name: str) -> bool:
        return name in self._streams
