"""Sweep enumeration: which (system, seed) points to run.

Every evaluation in the paper is a sweep — five systems x many seeds x
ablation knobs (Figures 11-19, Table 1).  A :class:`SweepSpec` describes
a systems x seeds grid declaratively; :meth:`SweepSpec.points` enumerates
it in a *fixed, deterministic order* so that results can always be
collected and reported keyed by point, never by completion order.  Any
other grid (an ablation knob, a batch job, a server index) is a list of
:class:`SweepPoint` objects, which :func:`repro.parallel.runner.run_sweep`
takes as well.

A :class:`SweepPoint` is self-contained: it carries the full
:class:`~repro.config.SystemConfig` and :class:`~repro.config.SimulationConfig`
(plus the batch job and server index), so a worker process can execute it
from its serialized form alone, and the serialized form doubles as the
content-addressed cache key payload (see :mod:`repro.parallel.cache`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.config import SimulationConfig, SystemConfig
from repro.core.serialize import to_dict
from repro.workloads.batch import BatchJobProfile


# --- split-key payload serialization ---------------------------------------
#
# A cluster-scale run hashes ~the same multi-KB config 128 x epochs times:
# every per-server point shares the SystemConfig / SimulationConfig /
# BatchJobProfile *instances* and differs only in a few scalar fields.
# ``canonical_json(to_dict(point.payload()))`` re-walks and re-serializes
# the whole tree per point.  The fragment memo below caches the canonical
# JSON of each frozen sub-object *by identity*, so the shared base is
# serialized once and each point only assembles its tiny delta around the
# memoized fragments.  The output is byte-identical to
# ``canonical_json(payload())`` — cache keys never change (pinned by the
# key-stability golden in tests/data/golden_cache_keys.json).

#: id(obj) -> (obj, canonical fragment).  The object reference keeps the
#: id alive so a recycled id can never alias a different object; the
#: sanity check ``memo[0] is obj`` guards the pathological case anyway.
_FRAGMENT_MEMO: Dict[int, Tuple[Any, str]] = {}
#: Same shape, for BatchJobProfile (``dataclasses.asdict`` encoding,
#: no ``__type__`` marker — kept separate so one object id can never be
#: served under the wrong encoding).
_ASDICT_MEMO: Dict[int, Tuple[Any, str]] = {}
#: Clear-on-full bound: a sweep reuses a handful of config instances, so
#: the memo stays tiny; the bound only guards pathological callers that
#: churn through thousands of distinct configs in one process.
_FRAGMENT_MEMO_MAX = 8192

#: (type, value) -> json text for scalar field values.  Keyed by type so
#: ``True``/``1``/``1.0`` (which compare equal) can never serve each
#: other's encoding.
_SCALAR_MEMO: Dict[Tuple[type, Any], str] = {}


def _scalar_json(value: Any) -> str:
    return json.dumps(value, allow_nan=True)


#: Per-dataclass serialization template: ``(prefix, field_name)`` pairs in
#: canonical (sorted-key) order, where ``prefix`` is the pre-quoted
#: ``"name":`` string — or the whole constant ``"__type__":"Cls"`` pair
#: (``field_name`` None).  Computed once per class, so the per-instance
#: miss path is just getattr + fragment + join, with no per-call dict
#: build, key quoting, or sort.
_CLASS_TEMPLATES: Dict[type, Tuple[Tuple[str, Optional[str]], ...]] = {}


def _class_template(cls: type) -> Tuple[Tuple[str, Optional[str]], ...]:
    names = [f.name for f in dataclasses.fields(cls)]
    entries = []
    for name in sorted(["__type__"] + names) if "__type__" not in names \
            else sorted(names):
        # A field literally named __type__ shadows the class marker, the
        # same way it would in ``{"__type__": ..., **fields}``.
        if name == "__type__" and name not in names:
            entries.append(
                (
                    _scalar_json(name) + ":" + _scalar_json(cls.__name__),
                    None,
                )
            )
        else:
            entries.append((_scalar_json(name) + ":", name))
    template = tuple(entries)
    _CLASS_TEMPLATES[cls] = template
    return template


def _json_fragment(obj: Any) -> str:
    """``canonical_json(to_dict(obj))``, memoized per frozen dataclass.

    Byte-identical to ``canonical_json``: keys sorted, compact separators,
    ``__type__`` markers on dataclasses, ``__enum__`` wrappers on enums.
    """
    cls = obj.__class__
    if cls is str or cls is int or cls is float or obj is None or cls is bool:
        # Compact separators only matter for containers, so plain dumps
        # emits the same bytes canonical_json would.
        if cls is float and obj == 0.0:
            # -0.0 == 0.0, so they'd share a memo slot despite distinct
            # encodings ("-0.0" vs "0.0"); dump zeros directly.
            return json.dumps(obj)
        memo_key = (cls, obj)
        hit = _SCALAR_MEMO.get(memo_key)
        if hit is None:
            hit = json.dumps(obj, allow_nan=True)
            if len(_SCALAR_MEMO) >= _FRAGMENT_MEMO_MAX:
                _SCALAR_MEMO.clear()
            _SCALAR_MEMO[memo_key] = hit
        return hit
    if dataclasses.is_dataclass(cls):
        hit = _FRAGMENT_MEMO.get(id(obj))
        if hit is not None and hit[0] is obj:
            return hit[1]
        template = _CLASS_TEMPLATES.get(cls)
        if template is None:
            template = _class_template(cls)
        frag = "{" + ",".join(
            prefix if name is None else prefix + _json_fragment(
                getattr(obj, name)
            )
            for prefix, name in template
        ) + "}"
        if len(_FRAGMENT_MEMO) >= _FRAGMENT_MEMO_MAX:
            _FRAGMENT_MEMO.clear()
        _FRAGMENT_MEMO[id(obj)] = (obj, frag)
        return frag
    if isinstance(obj, Enum):
        return (
            '{"__enum__":' + _scalar_json(type(obj).__name__)
            + ',"value":' + _json_fragment(obj.value) + "}"
        )
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_fragment(v) for v in obj) + "]"
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            # json.dumps coerces non-str keys; defer to it for exactness.
            return json.dumps(
                to_dict(obj), sort_keys=True, separators=(",", ":"),
                allow_nan=True,
            )
        return "{" + ",".join(
            _scalar_json(k) + ":" + _json_fragment(v)
            for k, v in sorted(obj.items())
        ) + "}"
    # Scalars (None/bool/int/float/str); anything else raises the same
    # TypeError canonical_json would.
    return json.dumps(
        to_dict(obj), sort_keys=True, separators=(",", ":"), allow_nan=True
    )


def _asdict_fragment(obj: Any) -> str:
    """Memoized ``canonical_json(dataclasses.asdict(obj))`` (batch jobs)."""
    hit = _ASDICT_MEMO.get(id(obj))
    if hit is not None and hit[0] is obj:
        return hit[1]
    frag = json.dumps(
        dataclasses.asdict(obj), sort_keys=True, separators=(",", ":"),
        allow_nan=True,
    )
    if len(_ASDICT_MEMO) >= _FRAGMENT_MEMO_MAX:
        _ASDICT_MEMO.clear()
    _ASDICT_MEMO[id(obj)] = (obj, frag)
    return frag


def clear_fragment_memo() -> None:
    """Drop the split-key fragment memos (benchmark/test isolation)."""
    _FRAGMENT_MEMO.clear()
    _ASDICT_MEMO.clear()
    _SCALAR_MEMO.clear()


#: The most points (systems x seeds) one sweep may hold.  A sweep's
#: identity hashes every point, so a larger one would stall whoever
#: computes it (a service connection's thread, for one).
MAX_SWEEP_POINTS = 4096


def parse_seeds(text: str) -> Tuple[int, ...]:
    """Parse a seed set from CLI grammar.

    Accepts ``"0..7"`` (inclusive range), ``"3"``, or a comma list mixing
    both: ``"0,2,8..11"``.  A range is sized before it is expanded: more
    than :data:`MAX_SWEEP_POINTS` seeds is an error.
    """
    seeds: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_text, hi_text = part.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty seed range {part!r}")
            if len(seeds) + hi - lo + 1 > MAX_SWEEP_POINTS:
                raise ValueError(f"more than {MAX_SWEEP_POINTS} seeds in {text!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return tuple(seeds)


@dataclass(frozen=True)
class SweepPoint:
    """One fully-specified simulation in a sweep."""

    label: str
    system: SystemConfig
    sim: SimulationConfig
    batch_job: Optional[BatchJobProfile] = None
    server_index: int = 0

    def payload(self) -> Dict[str, Any]:
        """The complete, JSON-able description of this point.

        This is everything that determines the simulation's output — it is
        both what gets shipped to a worker process and what the result
        cache hashes (combined with the package version) to form the key.
        The ``label`` is deliberately excluded: renaming a point must not
        change its identity.
        """
        return {
            "system": to_dict(self.system),
            "simulation": to_dict(self.sim),
            "batch_job": (
                dataclasses.asdict(self.batch_job)
                if self.batch_job is not None
                else None
            ),
            "server_index": self.server_index,
        }

    def payload_json(self) -> str:
        """Canonical JSON of :meth:`payload`, via the split-key fast path.

        Byte-identical to ``canonical_json(self.payload())`` but assembled
        from identity-memoized fragments: the shared (system, simulation,
        batch-job) base serializes once per distinct *instance*, and each
        point contributes only its per-point delta (here ``server_index``
        plus whichever sub-config instances actually differ).  This is
        what :func:`repro.parallel.runner.run_sweep` feeds to
        :meth:`repro.parallel.cache.ResultCache.key_json`, so on-disk keys
        are unchanged.
        """
        job_frag = (
            "null" if self.batch_job is None
            else _asdict_fragment(self.batch_job)
        )
        # Top-level keys in sorted order, exactly as json.dumps emits them:
        # batch_job < server_index < simulation < system.
        return (
            '{"batch_job":' + job_frag
            + ',"server_index":' + _scalar_json(self.server_index)
            + ',"simulation":' + _json_fragment(self.sim)
            + ',"system":' + _json_fragment(self.system)
            + "}"
        )


@dataclass(frozen=True)
class SweepSpec:
    """A grid of simulations: systems x seeds on one simulation config."""

    systems: Mapping[str, SystemConfig]
    seeds: Sequence[int] = (2025,)
    sim: SimulationConfig = field(default_factory=SimulationConfig)

    def __post_init__(self) -> None:
        if not self.systems:
            raise ValueError("SweepSpec needs at least one system")
        if not self.seeds:
            raise ValueError("SweepSpec needs at least one seed")

    def points(self) -> Iterator[SweepPoint]:
        """Enumerate the grid in deterministic order.

        Order: system (declaration order), then seed (given order).
        Labels are unique and stable: ``"<system>/seed=<s>"``.
        """
        for name, system in self.systems.items():
            for seed in self.seeds:
                yield SweepPoint(
                    label=f"{name}/seed={seed}",
                    system=system,
                    sim=replace(self.sim, seed=seed),
                )

    def size(self) -> int:
        return len(self.systems) * len(self.seeds)
