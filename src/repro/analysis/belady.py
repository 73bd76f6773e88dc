"""Offline Belady (MIN) replacement replay for Figure 14.

Belady's optimal policy needs the future, so it cannot run inside the
event-driven simulation. Instead the engine records per-set L2 access
traces (``SimulationConfig.record_l2_trace``) and this module replays them
under MIN: on a miss with a full set, evict the line whose next use is
farthest in the future (never-used-again first).

The same replay machinery can run any online policy over a recorded trace
(:func:`replay_policy`), which keeps policy comparisons apples-to-apples on
identical access streams.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.mem.replacement import CacheSet, ReplacementPolicy

Trace = Sequence[Tuple[int, int, bool]]  # (set_index, tag, shared)


def belady_hit_rate(trace: Trace, ways: int) -> float:
    """Hit rate of Belady's MIN over a recorded (set, tag, shared) trace."""
    if ways <= 0:
        raise ValueError(f"ways must be positive, got {ways}")
    if not trace:
        raise ValueError("empty trace")

    # Precompute, for each access, the index of the next access to the same
    # (set, tag); infinity when never reused.
    n = len(trace)
    next_use = [n + 1] * n
    last_seen: Dict[Tuple[int, int], int] = {}
    for i in range(n - 1, -1, -1):
        key = (trace[i][0], trace[i][1])
        next_use[i] = last_seen.get(key, n + 1)
        last_seen[key] = i

    # Per-set resident tags with their next-use index.
    resident: Dict[int, Dict[int, int]] = defaultdict(dict)
    hits = 0
    for i, (set_index, tag, _shared) in enumerate(trace):
        lines = resident[set_index]
        if tag in lines:
            hits += 1
            lines[tag] = next_use[i]
            continue
        if len(lines) >= ways:
            victim = max(lines, key=lines.get)
            del lines[victim]
        lines[tag] = next_use[i]
    return hits / n


def replay_policy(trace: Trace, ways: int, policy: ReplacementPolicy) -> float:
    """Hit rate of an online policy replayed over a recorded trace."""
    if not trace:
        raise ValueError("empty trace")
    sets: Dict[int, CacheSet] = {}
    allowed = (1 << ways) - 1
    hits = 0
    for set_index, tag, shared in trace:
        cset = sets.get(set_index)
        if cset is None:
            cset = CacheSet(ways)
            sets[set_index] = cset
        way = cset.find(tag, allowed)
        if way >= 0:
            hits += 1
            policy.on_hit(cset, way)
            continue
        victim = policy.choose_victim(cset, shared, allowed)
        cset.fill(victim, tag, shared, False)
        policy.on_insert(cset, victim, shared)
    return hits / len(trace)


def merge_traces(traces: Iterable[Trace]) -> List[Tuple[int, int, bool]]:
    """Concatenate per-core traces, renumbering sets to avoid collisions.

    Each core's L2 is independent, so replays must not mix their sets;
    core ``k``'s set ``s`` becomes ``(k << 20) | s``.
    """
    merged: List[Tuple[int, int, bool]] = []
    for k, trace in enumerate(traces):
        for set_index, tag, shared in trace:
            merged.append(((k << 20) | set_index, tag, shared))
    return merged
