"""Byte-identity guard for the per-server engine's less-travelled paths.

``tests/data/golden_server_paths.json`` pins, per case, the digest of
the run's :class:`~repro.core.metrics.ServerResult` and, with telemetry
on, of the tracer's events and the probe columns.  Every fault scenario
(with and without a client), admission shedding, RQ overflow, the
adaptive agent, trace-driven arrivals, two Harvest VMs, both Term systems
and NoHarvest are covered; see ``tests/_server_paths_golden.py``.

Regenerate the pins (only when intentionally changing simulation
behaviour) with ``PYTHONPATH=src python tests/_server_paths_golden.py --write``.
"""

import pytest

from tests._server_paths_golden import (
    BLOCK,
    all_cases,
    case_label,
    load_golden,
    run_case,
)

GOLDEN = load_golden()
CASES = list(all_cases())


@pytest.mark.parametrize(
    "variant,system_key,witnesses",
    CASES,
    ids=[case_label(variant, key) for variant, key, _ in CASES],
)
def test_server_path_matches_golden(variant, system_key, witnesses):
    """The case runs its path and reproduces the pinned digests."""
    digests, seen = run_case(variant, system_key)
    for source, name in witnesses:
        assert seen[source].get(name, 0) > 0, f"{source} {name!r} never fired"
    assert digests == GOLDEN[case_label(variant, system_key)]


def test_every_pin_has_a_case():
    assert sorted(GOLDEN) == sorted(case_label(v, k) for v, k, _ in CASES)


def test_tracing_does_not_perturb_a_faulted_run():
    """The traced crash-storm result pin equals the untraced one."""
    for system_key in BLOCK:
        traced = GOLDEN[case_label("telemetry/crash-storm", system_key)]
        plain = GOLDEN[case_label("scenario/crash-storm", system_key)]
        assert traced["result"] == plain["result"]
