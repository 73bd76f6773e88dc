"""The committed benchmark records share one schema.

Every ``bench_results/BENCH_*.json`` is written by
``benchmarks/_timing.write_record``.  A record may report a failing gate
(that is what it is for), but it must say so consistently: each gate's
``ok`` follows from its ``value`` and ``min``, and the record's ``ok`` is
the conjunction of its gates.
"""

import json
import pathlib

import pytest

RECORDS = sorted(
    (pathlib.Path(__file__).parent.parent / "bench_results").glob("BENCH_*.json")
)

SCHEMA = {
    "benchmark", "commit", "baseline_commit", "version", "cpus", "python",
    "config", "end_to_end", "digest", "gates", "ok", "detail",
}


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_schema_and_gates(path):
    record = json.loads(path.read_text())
    assert set(record) == SCHEMA
    assert path.name == f"BENCH_{record['benchmark']}.json"
    for name, gate in record["gates"].items():
        if "min" in gate:
            assert set(gate) == {"value", "min", "ok"}, name
            assert gate["ok"] is (gate["value"] >= gate["min"]), name
        else:
            assert set(gate) == {"value", "ok"}, name
            assert gate["ok"] is gate["value"] and isinstance(gate["ok"], bool), name
    assert record["ok"] is all(gate["ok"] for gate in record["gates"].values())
