"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.belady import belady_hit_rate, replay_policy
from repro.hw.request_queue import RequestQueue, Subqueue
from repro.mem.cache import SetAssocArray
from repro.mem.partition import WayPartition, full_mask
from repro.mem.replacement import (
    CacheSet,
    HardHarvestPolicy,
    LruPolicy,
    RripPolicy,
)
from repro.sim.engine import Simulator


# ---------------------------------------------------------------------------
# Event engine
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=60))
def test_engine_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda t=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


# ---------------------------------------------------------------------------
# Replacement policies: generic safety invariants
# ---------------------------------------------------------------------------
policy_strategy = st.sampled_from(
    [
        LruPolicy(),
        RripPolicy(),
        HardHarvestPolicy(0b0011, 0.75),
        HardHarvestPolicy(0b0110, 0.5),
        HardHarvestPolicy(0, 1.0),
    ]
)


@given(
    policy=policy_strategy,
    accesses=st.lists(
        st.tuples(st.integers(0, 30), st.booleans()), min_size=1, max_size=200
    ),
    allowed=st.sampled_from([0b1111, 0b0011, 0b1100, 0b0001]),
)
@settings(max_examples=120, deadline=None)
def test_policy_victim_always_in_allowed_mask(policy, accesses, allowed):
    """Whatever the access stream, victims stay inside the allowed ways and
    lookups after a fill always hit."""
    cset = CacheSet(4)
    for tag, shared in accesses:
        way = cset.find(tag, allowed)
        if way >= 0:
            policy.on_hit(cset, way)
            continue
        victim = policy.choose_victim(cset, shared, allowed)
        assert (allowed >> victim) & 1
        cset.fill(victim, tag, shared, False)
        policy.on_insert(cset, victim, shared)
        assert cset.find(tag, allowed) == victim


@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 50), st.booleans()), min_size=1, max_size=300
    )
)
@settings(max_examples=60, deadline=None)
def test_harvest_vm_fills_never_touch_non_harvest_ways(accesses):
    """Partitioning isolation: accesses restricted to the harvest mask can
    never install state outside it."""
    harvest = 0b0011
    arr = SetAssocArray("iso", 4, 4, HardHarvestPolicy(harvest, 0.75))
    for tag, shared in accesses:
        arr.access(tag % 4, tag, shared, harvest)
    arr.settle()
    for cset in arr.sets.values():
        assert cset.valid_mask & ~harvest == 0


@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 40), st.booleans()),
        min_size=1,
        max_size=300,
    ),
    ways=st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_belady_dominates_online_policies(accesses, ways):
    """Belady's MIN is an upper bound for every online policy on any trace."""
    trace = [(s, t, sh) for s, t, sh in accesses]
    opt = belady_hit_rate(trace, ways)
    mask = (1 << ways) - 1
    for policy in (LruPolicy(), RripPolicy(), HardHarvestPolicy(mask >> 1, 0.75)):
        assert replay_policy(trace, ways, policy) <= opt + 1e-9


@given(
    ways=st.integers(2, 16),
    frac=st.floats(0.05, 0.95),
)
def test_partition_masks_disjoint_and_complete(ways, frac):
    part = WayPartition.split(ways, frac)
    assert part.harvest & part.non_harvest == 0
    assert part.harvest | part.non_harvest == full_mask(ways)
    assert 1 <= part.harvest_way_count <= ways - 1


# ---------------------------------------------------------------------------
# Cache flush semantics
# ---------------------------------------------------------------------------
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("access"), st.integers(0, 3), st.integers(0, 20),
                st.booleans(),
            ),
            st.tuples(st.just("flush"), st.integers(0, 15), st.just(0), st.just(False)),
        ),
        min_size=1,
        max_size=120,
    )
)
@settings(max_examples=80, deadline=None)
def test_lazy_flush_matches_eager_model(ops):
    """The epoch-based lazy flush must be observationally equivalent to an
    eagerly-invalidated reference model, write-backs of dirty lines dropped
    by (overlapping, partial) flushes included; a set's Shared and dirty
    bits never outlive its valid ones."""
    arr = SetAssocArray("lazy", 4, 4, LruPolicy())
    reference = {}  # (set, tag) -> [way, dirty], mirrored eagerly
    writebacks = 0
    mask_all = full_mask(4)
    for op, a, b, write in ops:
        if op == "access":
            # Odd tags are Shared lines, so the Shared bits get exercised.
            got = arr.access(a, b, bool(b & 1), mask_all, write)
            want = (a, b) in reference
            assert got == want
            if want:
                reference[(a, b)][1] |= write
            else:
                # Mirror the fill and any eviction.
                arr_set = arr.sets[a]
                filled_way = arr_set.find(b, mask_all)
                # Remove whatever reference had in that way.
                for key, (way, dirty) in list(reference.items()):
                    if key[0] == a and way == filled_way:
                        writebacks += dirty
                        del reference[key]
                reference[(a, b)] = [filled_way, write]
        else:
            way_mask = a & mask_all
            arr.flush_ways(way_mask)
            for key, (way, dirty) in list(reference.items()):
                if (way_mask >> way) & 1:
                    writebacks += dirty
                    del reference[key]
        for cset in arr.sets.values():
            assert cset.dirty_mask & ~cset.valid_mask == 0
            assert cset.shared_mask & ~cset.valid_mask == 0
    arr.settle()
    assert arr.writebacks == writebacks
    for cset in arr.sets.values():
        assert cset.dirty_mask & ~cset.valid_mask == 0
        assert cset.shared_mask & ~cset.valid_mask == 0


# ---------------------------------------------------------------------------
# Request queue invariants
# ---------------------------------------------------------------------------
@given(
    n_vms=st.integers(1, 6),
    chunks=st.integers(8, 32),
)
def test_chunk_ownership_invariant_after_registrations(n_vms, chunks):
    rq = RequestQueue(chunks, 4)
    for vm in range(n_vms):
        rq.create_subqueue(vm, max(1, chunks // n_vms))
    assert rq.chunk_owner_invariant()
    # Tear down in reverse; invariant holds throughout.
    for vm in range(n_vms - 1, -1, -1):
        rq.destroy_subqueue(vm)
        assert rq.chunk_owner_invariant()


@given(st.lists(st.sampled_from(["enq", "deq", "block", "ready", "done"]), max_size=200))
@settings(max_examples=80, deadline=None)
def test_subqueue_state_machine_never_corrupts(script):
    """Drive the subqueue with arbitrary operation scripts; counts stay
    consistent and FIFO order among ready entries is preserved."""
    sq = Subqueue(0, entries_per_chunk=8)
    sq.grant_chunk(0)
    next_id = 0
    running = []
    blocked = []
    enqueued = []
    for op in script:
        if op == "enq":
            sq.enqueue(next_id)
            enqueued.append(next_id)
            next_id += 1
        elif op == "deq":
            got = sq.dequeue_ready()
            if got is not None:
                assert got == enqueued.pop(0)
                running.append(got)
        elif op == "block" and running:
            req = running.pop(0)
            sq.mark_blocked(req)
            blocked.append(req)
        elif op == "ready" and blocked:
            req = blocked.pop(0)
            sq.mark_ready(req)
            # Entries keep their original FIFO slot, so the ready order is
            # ascending id: re-insert in sorted position.
            import bisect

            bisect.insort(enqueued, req)
        elif op == "done" and running:
            sq.complete(running.pop())
    assert sq.total_pending() == len(enqueued) + len(running) + len(blocked)
