"""Service smoke: drive a real ``python -m repro serve`` end to end.

The CI ``service-smoke`` job's workhorse.  It starts the service as a
subprocess (the real CLI, the real socket, the real signal path), then:

1. submits a small sweep job and a duplicate of it — the duplicate must
   dedupe onto the same job id;
2. submits a 4-server cluster-scale job with ``harvest_base`` set (the
   CLI's ``--harvest-base``);
3. polls both to completion and compares every digest against the
   direct CLI path (``python -m repro sweep/cluster --stats-json``) run
   in a *separate* cache directory, so equality is a genuine cross-check
   rather than a cache echo;
4. scrapes ``/metrics`` and saves the exposition text for
   ``ci_checks.py metrics-text``;
5. lists the server's child processes (its service slots' pool
   workers, kept between jobs), SIGTERMs the server, requires a
   graceful exit 0, and requires every one of those children to be
   gone once it has exited.

``--soak`` (nightly) additionally submits a crash-storm fault-plan
cluster job through the API plus a concurrent duplicate storm, and
verifies the dedupe counters.  The machine-checkable record lands at
``bench_results/BENCH_service_smoke.json`` (``ci_checks.py
service-stats`` asserts on it).

Usage::

    PYTHONPATH=src python benchmarks/service_smoke.py --workers 2
    PYTHONPATH=src python benchmarks/service_smoke.py --soak
"""

from __future__ import annotations

import argparse
import concurrent.futures
import glob
import json
import os
import platform
import signal
import socket
import subprocess
import sys
import tempfile
import time

import repro
from repro.service.client import ServiceClient

SWEEP_SIM = {"horizon_ms": 40.0, "warmup_ms": 8.0, "accesses_per_segment": 6}
CLUSTER_SIM = {"horizon_ms": 25.0, "warmup_ms": 5.0, "accesses_per_segment": 4}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _start_server(port: int, cache_dir: str, workers: int):
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port), "--cache-dir", cache_dir,
            "--service-workers", str(workers), "--grace-s", "60",
        ],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    client = ServiceClient(port=port)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"server died at startup:\n{proc.stdout.read()}"
            )
        try:
            client.healthz()
            return proc, client
        except OSError:
            time.sleep(0.1)
    proc.kill()
    raise RuntimeError("server did not become healthy within 60s")


def _cli_stats(command: list, stats_path: str) -> dict:
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    subprocess.run(
        [sys.executable, "-m", "repro", *command, "--stats-json", stats_path],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    with open(stats_path) as fh:
        return json.load(fh)


def _stat_fields(pid: str) -> list:
    """Fields of ``/proc/<pid>/stat`` after the command name: state, ppid,
    ...; empty when the process is gone (Linux only)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return []


def _children(pid: int) -> list:
    """PIDs of ``pid``'s live children.  Each process's parent is read
    from its ``stat``: ``/proc/<pid>/task/*/children`` would be shorter,
    but not every kernel is built with it."""
    out = []
    for path in glob.glob("/proc/[0-9]*"):
        fields = _stat_fields(os.path.basename(path))
        if len(fields) > 1 and fields[1] == str(pid) and fields[0] != "Z":
            out.append(int(os.path.basename(path)))
    return sorted(out)


def _alive(pid: int) -> bool:
    """Running and not a zombie (an orphan's new parent may never reap)."""
    fields = _stat_fields(str(pid))
    return bool(fields) and fields[0] != "Z"


def _metric_value(metrics_text: str, name: str) -> float:
    for line in metrics_text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            return float(line.rsplit(None, 1)[1])
    raise KeyError(f"metric {name} not found")


def run_smoke(workers: int, soak: bool, timeout_s: float) -> dict:
    record: dict = {
        "bench": "service_smoke",
        "version": repro.__version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workers": workers,
        "soak": soak,
    }
    with tempfile.TemporaryDirectory(prefix="repro_svc_") as tmp:
        service_cache = os.path.join(tmp, "service_cache")
        cli_cache = os.path.join(tmp, "cli_cache")
        port = _free_port()
        proc, client = _start_server(port, service_cache, workers=2)
        try:
            # --- sweep job + duplicate -------------------------------
            sweep_job = {
                "kind": "sweep",
                "systems": "NoHarvest,HardHarvest-Block",
                "seeds": "0..1",
                "workers": workers,
                "simulation": SWEEP_SIM,
            }
            first = client.submit(sweep_job)
            duplicate = client.submit(sweep_job)
            record["sweep_job_id"] = first["job_id"]
            record["dedupe_same_id"] = first["job_id"] == duplicate["job_id"]
            record["dedupe_not_recreated"] = duplicate["created"] is False

            # --- cluster job -----------------------------------------
            cluster_job = {
                "kind": "cluster",
                "system": "HardHarvest-Block",
                "workers": workers,
                "cluster": {
                    "servers": 4, "requests": 6000, "epochs": 2,
                    "routing": "p2c",
                },
                "harvest_base": 2,
                "simulation": CLUSTER_SIM,
            }
            cluster = client.submit(cluster_job)
            record["cluster_job_id"] = cluster["job_id"]

            client.wait(first["job_id"], timeout_s=timeout_s)
            client.wait(cluster["job_id"], timeout_s=timeout_s)
            sweep_result = client.result(first["job_id"])
            cluster_result = client.result(cluster["job_id"])

            # --- CLI cross-check (separate cache dir) ----------------
            cli_sweep = _cli_stats(
                [
                    "sweep", "--systems", "NoHarvest,HardHarvest-Block",
                    "--seeds", "0..1",
                    "--horizon-ms", str(SWEEP_SIM["horizon_ms"]),
                    "--accesses", str(SWEEP_SIM["accesses_per_segment"]),
                    "--cache-dir", cli_cache,
                ],
                os.path.join(tmp, "cli_sweep.json"),
            )
            cli_cluster = _cli_stats(
                [
                    "cluster", "--system", "HardHarvest-Block",
                    "--servers", "4", "--requests", "6000",
                    "--epochs", "2", "--routing", "p2c",
                    "--harvest-base", "2",
                    "--horizon-ms", str(CLUSTER_SIM["horizon_ms"]),
                    "--accesses", str(CLUSTER_SIM["accesses_per_segment"]),
                    "--workers", "1", "--cache-dir", cli_cache,
                ],
                os.path.join(tmp, "cli_cluster.json"),
            )
            record["sweep_digest_service"] = sweep_result["digest"]
            record["sweep_digest_cli"] = cli_sweep["digest"]
            record["sweep_digests_equal"] = (
                sweep_result["digest"] == cli_sweep["digest"]
            )
            record["cluster_digest_service"] = cluster_result["digest"]
            record["cluster_digest_cli"] = cli_cluster["digest"]
            record["cluster_digests_equal"] = (
                cluster_result["digest"] == cli_cluster["digest"]
            )

            # --- soak: fault plan through the API + dup storm --------
            if soak:
                storm_job = {
                    "kind": "cluster",
                    "system": "HardHarvest-Block",
                    "workers": workers,
                    "cluster": {
                        "servers": 4, "requests": 4800, "epochs": 3,
                        "routing": "p2c",
                    },
                    "fault_plan": "crash-storm",
                    "simulation": CLUSTER_SIM,
                }
                with concurrent.futures.ThreadPoolExecutor(8) as pool:
                    ids = {
                        s["job_id"]
                        for s in pool.map(
                            lambda _: client.submit(storm_job), range(8)
                        )
                    }
                record["storm_unique_ids"] = len(ids)
                storm_id = next(iter(ids))
                client.wait(storm_id, timeout_s=timeout_s)
                storm = client.result(storm_id)
                record["storm_digest"] = storm["digest"]
                record["storm_resilience_epochs"] = len(
                    storm["resilience_curve"]
                )

            # --- metrics ---------------------------------------------
            metrics_text = client.metrics()
            record["metrics_text"] = metrics_text
            record["metrics_deduped"] = _metric_value(
                metrics_text, "repro_service_deduped_total"
            )
            record["metrics_completed"] = _metric_value(
                metrics_text, "repro_service_jobs_completed_total"
            )

            # --- graceful SIGTERM, leaving no worker behind ----------
            children = _children(proc.pid)
            record["server_children"] = len(children)
            proc.send_signal(signal.SIGTERM)
            record["server_exit"] = proc.wait(timeout=90)
            record["children_alive_after_exit"] = sum(
                1 for pid in children if _alive(pid)
            )
            record["server_log_tail"] = proc.stdout.read()[-2000:]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    record["ok"] = bool(
        record.get("dedupe_same_id")
        and record.get("dedupe_not_recreated")
        and record.get("sweep_digests_equal")
        and record.get("cluster_digests_equal")
        and record.get("server_exit") == 0
        and record.get("server_children", 0) >= 1
        and record.get("children_alive_after_exit") == 0
        and (not soak or record.get("storm_unique_ids") == 1)
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2,
                        help="per-job process-pool workers (default 2)")
    parser.add_argument("--soak", action="store_true",
                        help="also run the fault-plan + duplicate-storm "
                             "soak phase (nightly)")
    parser.add_argument("--timeout-s", type=float, default=900.0,
                        help="per-job completion timeout (default 900)")
    parser.add_argument("--out", default=None,
                        help="record path (default bench_results/"
                             "BENCH_service_smoke.json)")
    parser.add_argument("--metrics-out", default=None,
                        help="also write the scraped /metrics text here")
    args = parser.parse_args(argv)

    started = time.monotonic()
    record = run_smoke(args.workers, args.soak, args.timeout_s)
    record["wall_s"] = round(time.monotonic() - started, 3)

    metrics_text = record.pop("metrics_text", "")
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(metrics_text)
        print(f"wrote metrics exposition to {args.metrics_out}")

    out = args.out or os.path.join(
        "bench_results",
        "BENCH_service_smoke.json" if not args.soak
        else "BENCH_service_soak.json",
    )
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
    print(f"wrote {out}")
    print(f"sweep digests equal:   {record['sweep_digests_equal']}")
    print(f"cluster digests equal: {record['cluster_digests_equal']}")
    print(f"dedupe: same id {record['dedupe_same_id']}, "
          f"metrics deduped {record['metrics_deduped']}")
    print(f"server exit: {record['server_exit']}, "
          f"{record['children_alive_after_exit']} of its "
          f"{record['server_children']} child process(es) left")
    if not record["ok"]:
        print("service smoke FAILED", file=sys.stderr)
        return 1
    print("service smoke PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
