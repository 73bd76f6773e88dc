"""Bit-identity guard for the memory and scheduler hot paths.

The batched memory walk (:meth:`CoreMemory.access_batch`, vectorized
sampling, hashed per-set tag indexes) and the scheduler (the engine's
batched same-timestamp drain, the subqueues' status bytes searched with
``bytearray.find``) must reproduce the original per-access / per-event
implementations *exactly* — every counter, latency percentile, and
resilience metric.  ``tests/data/golden_hotpath.json`` pins digests
computed by those original implementations; these tests hold today's
single implementation to them, and check the structures the hot paths
rely on: the cache sets' tag index, and the subqueues' status bytes.

Regenerate the pins (only when intentionally changing simulation
behavior) with ``PYTHONPATH=src python tests/_hotpath_golden.py --write``.
"""

import pytest

from repro.core.experiment import run_server_raw
from repro.core.presets import harvest_block, hardharvest_block
from repro.config import SimulationConfig
from repro.hw.request_queue import RequestStatus

from tests._hotpath_golden import all_cases, case_label, load_golden, run_digest

GOLDEN = load_golden()
CASES = list(all_cases())


@pytest.mark.parametrize(
    "system_key,seed,variant",
    CASES,
    ids=[case_label(*c) for c in CASES],
)
def test_fast_path_matches_golden(system_key, seed, variant):
    """The hot paths reproduce the pinned digests."""
    assert run_digest(system_key, seed, variant) == GOLDEN[
        case_label(system_key, seed, variant)
    ]


def test_telemetry_is_zero_perturbation():
    """The pinned telemetry-on digests equal the plain seed-0 digests.

    Telemetry's contract is that enabling it never changes simulation
    results; checking it at the pin level (instead of re-running) makes
    the golden file itself document the property.
    """
    for system_key in ("SW", "HardHarvest"):
        assert GOLDEN[case_label(system_key, 0, "telemetry")] == GOLDEN[
            case_label(system_key, 0)
        ]


# ----------------------------------------------------------------------
# Structural invariants
# ----------------------------------------------------------------------

def _check_array(arr, label):
    """The hashed index must mirror the valid ways' tags, and the Shared
    and dirty bits must sit on valid ways only."""
    for set_index, cset in arr.sets.items():
        expect_index = {}
        for w in range(cset.ways):
            if (cset.valid_mask >> w) & 1:
                expect_index[cset.tags[w]] = expect_index.get(cset.tags[w], 0) | (1 << w)
        assert cset.index == expect_index, f"{label} set {set_index}"
        assert cset.shared_mask & ~cset.valid_mask == 0, f"{label} set {set_index}"
        assert cset.dirty_mask & ~cset.valid_mask == 0, f"{label} set {set_index}"


def _check_subqueue(sq, label):
    """One status byte per entry, each a :class:`RequestStatus`, and no
    request queued twice (in hardware or in the overflow subqueue)."""
    assert len(sq.status) == len(sq.entries), label
    assert set(sq.status) <= set(RequestStatus), label
    queued = [id(r) for r in sq.entries] + [id(r) for r in sq.overflow]
    assert len(set(queued)) == len(queued), label


def _subqueues(sim):
    """Every live subqueue of a finished server simulation, labeled."""
    out = []
    for vm in sim.primary_vms:
        queue = vm.queue
        sq = getattr(queue, "_sq", None)  # SoftwareQueue
        if sq is None:
            sq = queue.subqueue  # QueueManager
        out.append((sq, f"vm{vm.vm_id}.{type(queue).__name__}"))
    return out


def test_index_consistency_after_run():
    """After a full simulated run every set's hashed index is coherent.

    ``settle()`` first applies any pending lazy way-flushes, then the
    index is re-derived from ``tags`` and ``valid_mask`` — the invariant
    every fast-path fill/evict/reconcile must preserve.
    """
    sim = run_server_raw(
        hardharvest_block(),
        SimulationConfig(seed=0, horizon_ms=10.0, warmup_ms=2.0,
                         accesses_per_segment=8),
    )
    arrays = []
    for core in sim.cores:
        mem = core.memory
        arrays += [
            (mem.l1d.array, f"core{core.core_id}.l1d"),
            (mem.l1i.array, f"core{core.core_id}.l1i"),
            (mem.l2.array, f"core{core.core_id}.l2"),
            (mem.l1_tlb.array, f"core{core.core_id}.l1tlb"),
            (mem.l2_tlb.array, f"core{core.core_id}.l2tlb"),
        ]
    seen = 0
    for arr, label in arrays:
        arr.settle()
        _check_array(arr, label)
        seen += len(arr.sets)
    assert seen > 100  # the run genuinely touched the hierarchy


@pytest.mark.parametrize(
    "preset",
    [harvest_block, hardharvest_block],
    ids=["SW", "HardHarvest"],
)
def test_queue_mirror_consistency_after_run(preset):
    """After a full run every subqueue's status bytes are coherent.

    ``status`` must hold one valid status byte per entry, positionally
    aligned with ``entries`` — the invariant every enqueue, dequeue, block,
    discard and shed must preserve.  Covers both queue shapes: software
    per-core steering queues and the hardware QM subqueues.
    """
    sim = run_server_raw(
        preset(),
        SimulationConfig(seed=0, horizon_ms=10.0, warmup_ms=2.0,
                         accesses_per_segment=8),
    )
    for sq, label in _subqueues(sim):
        _check_subqueue(sq, label)
