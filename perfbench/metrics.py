"""Metric definitions and the statistics the benchmark reports.

``BENCHMARK.json`` declares the gated end-to-end metrics (unit, better
direction, bound) and the per-layer metrics (unit, better direction);
they are read from it here.  The end-to-end metrics it does not gate -
the per-workload latencies and ``fail_frac`` - are declared in
:data:`UNGATED`; they are printed, recorded and held to their bounds by
the steadiness mode.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Metric and workload names: a letter or digit, then up to 63 more of
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Candidate tail percentiles, lowest first.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only when this many samples lie beyond it.
TAIL_MIN_BEYOND = 10

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(_ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)

WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])

#: End-to-end metrics ``BENCHMARK.json`` does not gate: name -> (unit,
#: better, bound, workloads).  ``bound`` is the share of the baseline
#: median by which the metric may worsen.
UNGATED: Dict[str, Tuple[str, str, float, Tuple[str, ...]]] = {
    "run_p90_s": ("s", "lower", 0.25, ("cluster-warm",)),
    "job_p50_s": ("s", "lower", 0.15, ("service-sweep",)),
    "job_p75_s": ("s", "lower", 0.15, ("service-sweep",)),
    "hit_p50_ms": ("ms", "lower", 0.2, ("service-sweep",)),
    "hit_p90_ms": ("ms", "lower", 0.25, ("service-sweep",)),
    "fail_frac": ("1", "lower", 0.0, WORKLOADS),
}

#: End-to-end metrics gated on every workload, in ``BENCHMARK.json`` order.
GATED = tuple(m["name"] for m in _SPEC["end_to_end"])

#: Every end-to-end metric: name -> (unit, better, bound, workloads).
END_TO_END: Dict[str, Tuple[str, str, float, Tuple[str, ...]]] = {
    m["name"]: (m["unit"], m["better"], m["bound"], WORKLOADS)
    for m in _SPEC["end_to_end"]
}
END_TO_END.update(UNGATED)

#: Per-layer metrics, in the order the traced run prints them: name ->
#: (unit, better).  They carry no bound.
LAYERS: Dict[str, Tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in _SPEC["per_layer"]
}


def better(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][1]
    return LAYERS[name][1]


def valid_name(name: str) -> bool:
    """True when ``name`` follows the metric-name grammar."""
    return NAME_RE.fullmatch(name) is not None


def percentile(values: Sequence[float], p: float) -> float:
    """Linearly interpolated ``p``-th percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least
    :data:`TAIL_MIN_BEYOND` of ``n`` samples beyond it, or None."""
    best = None
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def tail_value(values: Sequence[float], p: float) -> float:
    """``percentile(values, p)``, refusing a percentile the sample count
    cannot support (fewer than ten samples beyond it)."""
    supported = tail_percentile(len(values))
    if supported is None or supported < p:
        raise ValueError(
            f"p{p:g} needs {TAIL_MIN_BEYOND} samples beyond it; "
            f"have {len(values)} samples"
        )
    return percentile(values, p)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def worsening(name: str, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base`` as a share of ``base``
    (negative when better), in the metric's own direction."""
    if base == 0:
        return 0.0 if other == 0 else math.inf
    delta = (other - base) / abs(base)
    return delta if better(name) == "lower" else -delta


def metric_entry(value: float, unit: str, n: int) -> Dict[str, float]:
    return {"value": float(value), "unit": unit, "n": int(n)}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    return LAYERS[name][0]


def metrics_for(workload: str) -> List[str]:
    """End-to-end metric names defined on ``workload``."""
    return [n for n, spec in END_TO_END.items() if workload in spec[3]]
