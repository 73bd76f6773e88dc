"""End-to-end tests against a live in-thread service instance.

Each test gets a real socket (ephemeral port), the real threaded front
end, and a scratch cache directory.  The headline assertions are the
tentpole's acceptance criteria: digests served over HTTP are byte-equal
to the direct runners, duplicate submissions dedupe, queued jobs survive
a restart, and /metrics is valid Prometheus exposition text.
"""

import os
import re
import signal
import socket
import subprocess
import sys

import pytest

import repro
from repro.config import SimulationConfig
from repro.service import ServiceClient, ServiceError, start_in_thread

TINY_SIM = {"horizon_ms": 12.0, "warmup_ms": 2.0, "accesses_per_segment": 3}

#: ``name{labels} value`` or a HELP/TYPE comment — one line of valid
#: Prometheus text exposition.
METRIC_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+(inf|nan)?)$"
)


@pytest.fixture()
def service(tmp_path):
    handle = start_in_thread(
        cache_dir=str(tmp_path / "cache"), service_workers=2
    )
    try:
        yield handle
    finally:
        handle.stop()


@pytest.fixture()
def client(service):
    return ServiceClient(port=service.port)


def sweep_body(**overrides):
    body = {
        "kind": "sweep",
        "systems": "NoHarvest",
        "seeds": "0..1",
        "simulation": dict(TINY_SIM),
    }
    body.update(overrides)
    return body


# ---------------------------------------------------------------------------
# Plumbing.
# ---------------------------------------------------------------------------
def test_healthz(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["queue_depth"] == 0


def test_unknown_route_404(client):
    with pytest.raises(ServiceError) as excinfo:
        client._checked("GET", "/nope", ok=(200,))
    assert excinfo.value.status == 404


def test_unknown_job_404(client):
    with pytest.raises(ServiceError) as excinfo:
        client.status("deadbeef")
    assert excinfo.value.status == 404


def test_post_invalid_json_400(client):
    status, body = client._request("POST", "/jobs")
    assert status == 400 or body.get("error")  # empty body -> kind missing
    status, body = client._request("GET", "/jobs/x/banana")
    assert status == 404


def test_validation_error_names_field(client):
    with pytest.raises(ServiceError) as excinfo:
        client.submit(sweep_body(simulation={"horizon_ms": -5}))
    assert excinfo.value.status == 400
    assert excinfo.value.body["field"] == "horizon_ms"
    assert "horizon_ms" in excinfo.value.body["error"]


@pytest.mark.parametrize("body,field", [
    ({"kind": "cluster", "cluster": {"servers": "4"}}, "servers"),
    ({"kind": "cluster", "cluster": {"servers": 2}, "harvest_base": 40},
     "harvest_base"),
])
def test_wrong_typed_or_invalid_field_is_400(client, body, field):
    with pytest.raises(ServiceError) as excinfo:
        client.submit(body)
    assert excinfo.value.status == 400
    assert excinfo.value.body["field"] == field


def test_sweep_over_the_point_limit_is_400(client):
    """4,097 points: refused before the job id hashes every point."""
    with pytest.raises(ServiceError) as excinfo:
        client.submit(sweep_body(seeds="0..4096"))
    assert excinfo.value.status == 400
    assert excinfo.value.body["field"] == "seeds"
    assert client.healthz()["queue_depth"] == 0


def test_method_not_allowed(client):
    status, _ = client._request("GET", "/jobs")
    assert status == 405


def test_healthz_answers_while_a_job_id_is_computed(service, monkeypatch):
    """A submission's job id is hashed on its own connection's thread: a
    slow one leaves /healthz answering, then completes with 201."""
    import threading
    import time

    import repro.service.jobs as jobs_mod

    entered, release = threading.Event(), threading.Event()
    real = jobs_mod.job_content_id

    def slow_id(request):
        entered.set()
        release.wait(timeout=30)
        return real(request)

    monkeypatch.setattr(jobs_mod, "job_content_id", slow_id)
    posted = {}

    def post():
        client = ServiceClient(port=service.port)
        posted["status"], posted["body"] = client._request("POST", "/jobs", sweep_body())

    poster = threading.Thread(target=post)
    poster.start()
    try:
        assert entered.wait(timeout=10)
        started = time.monotonic()
        health = ServiceClient(port=service.port, timeout_s=1.0).healthz()
        assert health["status"] == "ok"
        assert time.monotonic() - started < 1.0
        assert "status" not in posted
    finally:
        release.set()
        poster.join(timeout=30)
    assert posted["status"] == 201
    assert posted["body"]["created"] is True


@pytest.mark.parametrize("raw,half_close", [
    (b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n", False),
    (b"POST /jobs HTTP/1.1\r\nContent-Length: many\r\n\r\n", False),
    (b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", False),
    (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n", False),
    (b"GET /healthz HTTP/one\r\n\r\n", False),
    (b"GET /healthz HTTP/1.1\r\n", False),
    (b"POST /jobs HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"kind\": ", False),
    (b"POST /jobs HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"kind\": ", True),
], ids=["negative-length", "non-integer-length", "oversized-length",
        "70kb-header-line", "bad-request-line", "no-blank-line-stalled",
        "short-body-stalled", "short-body-closed"])
def test_malformed_or_stalled_request_gets_4xx_or_a_closed_socket(
    service, client, monkeypatch, raw, half_close
):
    """Each ends in a 4xx with a JSON error, or the server closing the
    socket within its read timeout; the service keeps answering and no
    job record is written."""
    import json
    import time

    import repro.service.http as http_mod

    monkeypatch.setattr(http_mod._Handler, "timeout", 0.5)
    started = time.monotonic()
    reply = b""
    with socket.create_connection(("127.0.0.1", service.port), timeout=5.0) as sock:
        sock.sendall(raw)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        except ConnectionResetError:  # closed with our input unread
            pass
    if reply:
        head, _, body = reply.partition(b"\r\n\r\n")
        assert re.match(rb"HTTP/1\.[01] 4\d\d ", head), head[:60]
        assert json.loads(body)["error"]
    else:
        assert time.monotonic() - started < 3.0
    assert client.healthz()["status"] == "ok"
    jobs_dir = service.service.store.root
    assert not os.path.isdir(jobs_dir) or not os.listdir(jobs_dir)


def test_stop_does_not_wait_for_a_stalled_connection(tmp_path):
    """A client that stops mid-request holds its own thread, not the
    shutdown: stop() returns long before the 30 s read timeout."""
    import time

    handle = start_in_thread(cache_dir=str(tmp_path / "cache"), service_workers=0)
    with socket.create_connection(("127.0.0.1", handle.port)) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n")
        time.sleep(0.2)  # the handler thread is now waiting for headers
        started = time.monotonic()
        handle.stop()
        assert time.monotonic() - started < 5.0


def test_sigterm_stops_a_server_whose_log_reader_has_gone(tmp_path):
    """The reader of the server's standard output closes it after the
    listening line; SIGTERM must still shut the server down cleanly."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--service-workers", "1", "--grace-s", "1",
         "--cache-dir", str(tmp_path / "cache")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    try:
        line = proc.stdout.readline().decode()
        assert "listening on http://" in line
        proc.stdout.close()
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        assert ServiceClient(port=port).healthz()["status"] == "ok"
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pytest.fail("server still running 15 s after SIGTERM")
        assert code == 0, proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


# ---------------------------------------------------------------------------
# The determinism contract over HTTP.
# ---------------------------------------------------------------------------
def test_sweep_digest_matches_direct_runner(client):
    from repro.core.export import sweep_results_digest
    from repro.core.presets import all_systems
    from repro.parallel.runner import run_sweep
    from repro.parallel.sweep import SweepSpec

    submitted = client.submit(sweep_body(workers=2))
    assert submitted["created"] is True
    client.wait(submitted["job_id"], timeout_s=300)
    served = client.result(submitted["job_id"])

    spec = SweepSpec(
        systems={"NoHarvest": all_systems()["NoHarvest"]},
        seeds=(0, 1),
        sim=SimulationConfig(**TINY_SIM),
    )
    direct = run_sweep(spec)
    assert served["digest"] == sweep_results_digest(direct.results)
    assert served["points"] == 2
    assert set(served["results"]) == {"NoHarvest/seed=0", "NoHarvest/seed=1"}


def test_cluster_digest_matches_direct_runner(client):
    from repro.cluster_scale.runner import run_cluster_scale
    from repro.cluster_scale.spec import ClusterScaleConfig, RoutingPolicy
    from repro.config import SystemKind
    from repro.core.presets import build_system

    submitted = client.submit({
        "kind": "cluster",
        "system": "HardHarvest-Block",
        "cluster": {"servers": 2, "requests": 800, "epochs": 2,
                    "routing": "p2c"},
        "simulation": dict(TINY_SIM),
    })
    client.wait(submitted["job_id"], timeout_s=300)
    served = client.result(submitted["job_id"])

    direct = run_cluster_scale(
        build_system(SystemKind.HARDHARVEST_BLOCK),
        sim=SimulationConfig(**TINY_SIM, servers_to_simulate=2),
        cfg=ClusterScaleConfig(
            servers=2, requests=800, epochs=2,
            routing=RoutingPolicy("p2c"),
            epoch_ms=TINY_SIM["horizon_ms"],
            warmup_ms=TINY_SIM["warmup_ms"],
        ),
    )
    assert served["digest"] == direct.digest()
    assert served["summary"]["avg_p99_ms"] == pytest.approx(
        direct.avg_p99_ms()
    )


def test_duplicate_submission_dedupes(client):
    first = client.submit(sweep_body())
    duplicate = client.submit(sweep_body(workers=4))
    assert duplicate["job_id"] == first["job_id"]
    assert duplicate["created"] is False
    client.wait(first["job_id"], timeout_s=300)


def test_result_before_done_is_202(client, service):
    submitted = client.submit(sweep_body(seeds="0..3"))
    status, body = client._request(
        "GET", f"/jobs/{submitted['job_id']}/result"
    )
    # Depending on scheduling the job may already be done; both are legal.
    assert status in (200, 202)
    client.wait(submitted["job_id"], timeout_s=300)


def test_trace_endpoint(client):
    import json

    body = sweep_body(
        seeds="0",
        simulation={**TINY_SIM, "telemetry": {"enabled": True}},
    )
    submitted = client.submit(body)
    client.wait(submitted["job_id"], timeout_s=300)
    trace = json.loads(client.trace(submitted["job_id"]))
    assert trace["traceEvents"]


def test_trace_404_without_telemetry(client):
    submitted = client.submit(sweep_body(seeds="1"))
    client.wait(submitted["job_id"], timeout_s=300)
    with pytest.raises(ServiceError) as excinfo:
        client.trace(submitted["job_id"])
    assert excinfo.value.status == 404
    assert "telemetry" in excinfo.value.body["error"]


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------
def test_metrics_prometheus_validity(client):
    client.wait(client.submit(sweep_body())["job_id"], timeout_s=300)
    client.submit(sweep_body())  # a dedupe, to move that counter
    text = client.metrics()
    for line in text.strip().splitlines():
        assert METRIC_LINE.match(line), f"invalid exposition line: {line!r}"
    for required in (
        "repro_service_queue_depth",
        'repro_service_jobs{state="done"}',
        "repro_cache_hits_total",
        "repro_cache_misses_total",
        "repro_service_deduped_total 1",
        "repro_service_jobs_completed_total 1",
        "repro_service_workers 2",
    ):
        assert required in text, f"missing metric: {required}"


def test_metrics_cache_counters_accumulate(client):
    client.wait(client.submit(sweep_body())["job_id"], timeout_s=300)
    text = client.metrics()
    misses = next(
        float(line.rsplit(None, 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_cache_misses_total")
    )
    assert misses == 2.0  # two points, cold cache


# ---------------------------------------------------------------------------
# Queueing, admission, restart-resume.
# ---------------------------------------------------------------------------
def test_frozen_service_queues_and_resumes(tmp_path):
    """workers=0 freezes jobs as queued; a restarted service runs them."""
    cache_dir = str(tmp_path / "cache")
    frozen = start_in_thread(
        cache_dir=cache_dir, service_workers=0, max_queue=2
    )
    client = ServiceClient(port=frozen.port)
    try:
        submitted = client.submit(sweep_body(seeds="0"))
        assert client.status(submitted["job_id"])["state"] == "queued"
        client.submit(sweep_body(seeds="1"))
        with pytest.raises(ServiceError) as excinfo:
            client.submit(sweep_body(seeds="2"))
        assert excinfo.value.status == 429
    finally:
        frozen.stop()

    revived = start_in_thread(cache_dir=cache_dir, service_workers=2)
    try:
        revived_client = ServiceClient(port=revived.port)
        done = revived_client.wait(submitted["job_id"], timeout_s=300)
        assert done["digest"]
        assert "repro_service_jobs_resumed_total 2" in revived_client.metrics()
    finally:
        revived.stop()


def test_completed_results_survive_restart(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = start_in_thread(cache_dir=cache_dir, service_workers=1)
    client = ServiceClient(port=first.port)
    try:
        job_id = client.submit(sweep_body())["job_id"]
        client.wait(job_id, timeout_s=300)
        digest = client.result(job_id)["digest"]
    finally:
        first.stop()

    second = start_in_thread(cache_dir=cache_dir, service_workers=1)
    try:
        revived_client = ServiceClient(port=second.port)
        assert revived_client.status(job_id)["state"] == "done"
        assert revived_client.result(job_id)["digest"] == digest
        # And the identical submission dedupes onto the finished job.
        resubmitted = revived_client.submit(sweep_body())
        assert resubmitted["job_id"] == job_id
        assert resubmitted["created"] is False
    finally:
        second.stop()


def test_draining_service_rejects_submissions(tmp_path):
    handle = start_in_thread(cache_dir=str(tmp_path / "cache"),
                             service_workers=0)
    client = ServiceClient(port=handle.port)
    handle.stop()
    with pytest.raises(OSError):
        client.healthz()  # socket is gone after shutdown


def test_failed_job_is_409_with_error(tmp_path):
    """A job whose runner raises lands in failed with the error served."""
    handle = start_in_thread(cache_dir=str(tmp_path / "cache"),
                             service_workers=1)
    client = ServiceClient(port=handle.port)
    try:
        # requests_per_service path: valid at submit, but horizon too
        # short for warmup leaves nothing measured -> runner raises.
        body = {
            "kind": "sweep",
            "systems": "NoHarvest",
            "seeds": "0",
            "simulation": {**TINY_SIM, "load_scale": 1e-9},
        }
        submitted = client.submit(body)
        deadline_status = None
        import time as _time

        for _ in range(600):
            deadline_status = client.status(submitted["job_id"])
            if deadline_status["state"] in ("done", "failed"):
                break
            _time.sleep(0.1)
        if deadline_status["state"] == "failed":
            status, body = client._request(
                "GET", f"/jobs/{submitted['job_id']}/result"
            )
            assert status == 409
            assert body["error"]
    finally:
        handle.stop()
