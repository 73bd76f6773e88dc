"""The job spec: one parser for the CLI, the service and the chaos soak.

``tests/data/golden_job_ids.json`` pins the job ids of representative
bodies (see ``tests/_job_id_golden.py``); a change to how a body is read
must leave every pin unchanged.  The parser is strict about outside
input, and a CLI command and the equivalent service job report one
digest.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.__main__ import main
from repro.parallel.sweep import MAX_SWEEP_POINTS
from repro.service.executor import execute_job
from repro.service.jobs import JobRecord, JobStore
from repro.service.spec import JobValidationError, job_content_id, parse_job_request
from tests._job_id_golden import all_cases, job_id, load_golden

GOLDEN = load_golden()
CASES = dict(all_cases())


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_job_id_matches_golden(label):
    assert job_id(CASES[label]) == GOLDEN[label]


# ---------------------------------------------------------------------------
# Strict parsing: outside input is checked field by field.
# ---------------------------------------------------------------------------
def test_importing_the_spec_loads_neither_the_server_nor_the_store():
    """Every CLI command parses its flags through the spec, so importing it
    must not pull in asyncio, the HTTP server or the job store; every name
    the package exports still resolves."""
    code = (
        "import sys\n"
        "import repro.service.spec\n"
        "heavy = ('asyncio', 'http.server', 'repro.service.http', 'repro.service.jobs')\n"
        "print([m for m in heavy if m in sys.modules])\n"
        "import repro.service\n"
        "print([n for n in repro.service.__all__ if getattr(repro.service, n) is None])\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "[]"]


@pytest.mark.parametrize("systems,seeds", [
    ("NoHarvest", "0..4096"),
    ("NoHarvest", list(range(4097))),
    ("NoHarvest,HardHarvest-Block", "0..2048"),
    ("NoHarvest", "0..1000000000000"),
], ids=["range", "list", "product", "huge-range"])
def test_sweep_over_the_point_limit_is_refused(systems, seeds):
    """Refused before the seeds or the points are expanded."""
    body = {"kind": "sweep", "systems": systems, "seeds": seeds}
    with pytest.raises(JobValidationError) as excinfo:
        parse_job_request(body)
    assert excinfo.value.field == "seeds"


def test_sweep_at_the_point_limit_is_accepted():
    body = {"kind": "sweep", "systems": "NoHarvest",
            "seeds": f"0..{MAX_SWEEP_POINTS - 1}"}
    assert len(parse_job_request(body).points()) == MAX_SWEEP_POINTS



CLUSTER = {"kind": "cluster", "cluster": {"servers": 2}}

BAD_BODIES = [
    ({"kind": "sweep", "simulation": {"horizon_ms": "10"}}, "horizon_ms"),
    ({"kind": "sweep", "simulation": {"accesses_per_segment": None}},
     "accesses_per_segment"),
    ({"kind": "sweep", "simulation": {"load_scale": "x"}}, "load_scale"),
    ({"kind": "sweep", "simulation": {"trace_driven": "yes"}}, "trace_driven"),
    ({"kind": "sweep", "simulation": {"faults": 5}}, "faults"),
    ({"kind": "sweep", "simulation": {"telemetry": {"enabled": "yes"}}},
     "enabled"),
    ({"kind": "sweep", "simulation": {"suite": "nope"}}, "suite"),
    ({"kind": "sweep", "sytems": "NoHarvest"}, "sytems"),
    ({"kind": "sweep", "seeds": [3, -1]}, "seeds"),
    ({"kind": "sweep", "seeds": "0,0"}, "seeds"),
    ({"kind": "cluster", "cluster": {"servers": "4"}}, "servers"),
    ({"kind": "cluster", "cluster": {"servers": 2.0}}, "servers"),
    ({"kind": "cluster", "cluster": {"epochs": "2"},
      "fault_plan": "crash-storm"}, "epochs"),
    ({"kind": "cluster", "cluster": {"rebalance": "no"}}, "rebalance"),
    ({"kind": "cluster", "cluster": {"routing": None}}, "routing"),
    ({**CLUSTER, "cooldown": 2}, "cooldown"),
    ({**CLUSTER, "fault_plan": "crash-storm", "cooldown": -1}, "cooldown"),
    ({**CLUSTER, "harvest_base": 40}, "harvest_base"),
    ({**CLUSTER, "harvest_base": 0}, "harvest_base"),
    ({**CLUSTER, "harvest_base": "2"}, "harvest_base"),
    ({**CLUSTER, "sytem": "NoHarvest"}, "sytem"),
]


@pytest.mark.parametrize("body,field", BAD_BODIES,
                         ids=[f"{b['kind']}-{f}" for b, f in BAD_BODIES])
def test_bad_body_names_the_field(body, field):
    with pytest.raises(JobValidationError) as excinfo:
        parse_job_request(body)
    assert excinfo.value.field == field
    assert field in str(excinfo.value)


def test_int_for_float_field_is_cast():
    request = parse_job_request(
        {"kind": "cluster", "cluster": {"servers": 2, "epoch_ms": 10},
         "simulation": {"horizon_ms": 10, "load_scale": 2}}
    )
    assert type(request.sim.horizon_ms) is float
    assert type(request.sim.load_scale) is float
    assert type(request.cluster.epoch_ms) is float


def test_both_simulation_forms_get_one_job_id():
    from repro.config import SimulationConfig
    from repro.core.serialize import to_dict

    body = {"kind": "sweep", "systems": "NoHarvest", "seeds": "0"}
    forms = [
        {"horizon_ms": 12, "warmup_ms": 2, "accesses_per_segment": 3},
        to_dict(SimulationConfig(horizon_ms=12.0, warmup_ms=2.0,
                                 accesses_per_segment=3)),
        to_dict(SimulationConfig(horizon_ms=12, warmup_ms=2,
                                 accesses_per_segment=3)),
    ]
    ids = {job_content_id(parse_job_request({**body, "simulation": form}))
           for form in forms}
    assert len(ids) == 1


def test_harvest_base_and_cooldown_reach_the_configs():
    body = {"kind": "cluster", "cluster": {"servers": 2, "epochs": 3},
            "fault_plan": "crash-storm"}
    plain = parse_job_request(body)
    tuned = parse_job_request({**body, "harvest_base": 2, "cooldown": 2})
    assert tuned.cluster_system().cluster.harvest_vm_base_cores == 2
    assert tuned.cluster.fault_plan.cooldown_epochs == 2
    assert plain.cluster.fault_plan.cooldown_epochs == 1
    assert job_content_id(tuned) != job_content_id(plain)
    # The store persists both fields: a restarted service resumes the
    # same job.
    rebuilt = parse_job_request(tuned.to_request_dict())
    assert rebuilt == tuned
    assert job_content_id(rebuilt) == job_content_id(tuned)


# ---------------------------------------------------------------------------
# One digest: the CLI and the service run a spec through one function.
# ---------------------------------------------------------------------------
SAME_JOB = [
    (["sweep", "--systems", "NoHarvest,HardHarvest-Block", "--seeds", "0..1",
      "--horizon-ms", "12", "--accesses", "3"],
     {"kind": "sweep", "systems": ["NoHarvest", "HardHarvest-Block"],
      "seeds": [0, 1],
      "simulation": {"horizon_ms": 12, "accesses_per_segment": 3}}),
    (["cluster", "--servers", "2", "--requests", "800", "--epochs", "3",
      "--routing", "p2c", "--horizon-ms", "10", "--accesses", "2",
      "--seed", "3", "--harvest-base", "2", "--fault-plan", "crash-storm",
      "--cooldown", "2"],
     {"kind": "cluster", "system": "HardHarvest-Block",
      "cluster": {"servers": 2, "requests": 800, "epochs": 3,
                  "routing": "p2c"},
      "simulation": {"horizon_ms": 10, "seed": 3, "accesses_per_segment": 2},
      "harvest_base": 2, "fault_plan": "crash-storm", "cooldown": 2}),
]


@pytest.mark.parametrize("argv,body", SAME_JOB, ids=["sweep", "cluster"])
def test_cli_and_service_report_one_digest(argv, body, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    assert main(argv + ["--no-cache", "--stats-json", str(stats)]) == 0
    capsys.readouterr()
    request = parse_job_request(body)
    store = JobStore(str(tmp_path / "service"))
    record = JobRecord(job_id=job_content_id(request), kind=request.kind,
                       request=request.to_request_dict())
    summary = execute_job(record, request, store, cache_root=None)
    served = store.read_result(record.job_id)["digest"]
    assert served == summary["digest"] == json.loads(stats.read_text())["digest"]
