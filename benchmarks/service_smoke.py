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
4. scrapes ``/metrics`` (``--metrics-out`` saves the exposition text
   for ``ci_checks.py metrics-text``);
5. lists the server's child processes (its service slots' pool
   workers, kept between jobs), SIGTERMs the server, requires a
   graceful exit 0, and requires every one of those children to be
   gone once it has exited.

``--soak`` (nightly) additionally submits a crash-storm fault-plan
cluster job through the API from 8 concurrent clients, which must
collapse onto one job id.  Each requirement is a gate of the record,
``bench_results/BENCH_service_smoke.json`` (``BENCH_service_soak.json``
with ``--soak``); its ``digest`` is the served sweep job's.  The script
exits 1 when a gate fails.

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
import signal
import socket
import subprocess
import sys
import tempfile
import time

import repro
from repro.service.client import ServiceClient

from _timing import gate, write_record

SWEEP_SIM = {"horizon_ms": 40.0, "warmup_ms": 8.0, "accesses_per_segment": 6}
CLUSTER_SIM = {"horizon_ms": 25.0, "warmup_ms": 5.0, "accesses_per_segment": 4}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _env() -> dict:
    """This process's environment with the tree under test on the path."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _start_server(port: int, cache_dir: str, workers: int):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port), "--cache-dir", cache_dir,
            "--service-workers", str(workers), "--grace-s", "60",
        ],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
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


def _cli_digest(command: list, stats_path: str) -> str:
    subprocess.run(
        [sys.executable, "-m", "repro", *command, "--stats-json", stats_path],
        env=_env(), check=True, stdout=subprocess.DEVNULL,
    )
    with open(stats_path) as fh:
        return json.load(fh)["digest"]


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


def run_smoke(workers: int, soak: bool, timeout_s: float):
    """Drive the service once; returns ``(digest, gates, detail,
    metrics_text)``."""
    gates, detail = {}, {}
    with tempfile.TemporaryDirectory(prefix="repro_svc_") as tmp:
        cli_cache = os.path.join(tmp, "cli_cache")
        proc, client = _start_server(
            _free_port(), os.path.join(tmp, "service_cache"), workers=2
        )
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
            gates["dedupe_same_id"] = gate(first["job_id"] == duplicate["job_id"])
            gates["dedupe_not_recreated"] = gate(duplicate["created"] is False)

            # --- cluster job -----------------------------------------
            cluster = client.submit({
                "kind": "cluster",
                "system": "HardHarvest-Block",
                "workers": workers,
                "cluster": {
                    "servers": 4, "requests": 6000, "epochs": 2,
                    "routing": "p2c",
                },
                "harvest_base": 2,
                "simulation": CLUSTER_SIM,
            })
            detail["job_ids"] = {"sweep": first["job_id"],
                                 "cluster": cluster["job_id"]}
            client.wait(first["job_id"], timeout_s=timeout_s)
            client.wait(cluster["job_id"], timeout_s=timeout_s)

            # --- CLI cross-check (separate cache dir) ----------------
            detail["digests"] = {
                "sweep_service": client.result(first["job_id"])["digest"],
                "sweep_cli": _cli_digest(
                    [
                        "sweep", "--systems", "NoHarvest,HardHarvest-Block",
                        "--seeds", "0..1",
                        "--horizon-ms", str(SWEEP_SIM["horizon_ms"]),
                        "--accesses", str(SWEEP_SIM["accesses_per_segment"]),
                        "--cache-dir", cli_cache,
                    ],
                    os.path.join(tmp, "cli_sweep.json"),
                ),
                "cluster_service": client.result(cluster["job_id"])["digest"],
                "cluster_cli": _cli_digest(
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
                ),
            }
            digests = detail["digests"]
            for kind in ("sweep", "cluster"):
                gates[f"{kind}_digests_equal"] = gate(
                    digests[f"{kind}_service"] == digests[f"{kind}_cli"]
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
                gates["storm_deduped"] = gate(len(ids) == 1)
                storm_id = next(iter(ids))
                client.wait(storm_id, timeout_s=timeout_s)
                storm = client.result(storm_id)
                digests["storm_service"] = storm["digest"]
                detail["storm_resilience_epochs"] = len(storm["resilience_curve"])

            # --- metrics ---------------------------------------------
            metrics_text = client.metrics()
            detail["metrics_deduped"] = _metric_value(
                metrics_text, "repro_service_deduped_total"
            )
            detail["metrics_completed"] = _metric_value(
                metrics_text, "repro_service_jobs_completed_total"
            )

            # --- graceful SIGTERM, leaving no worker behind ----------
            children = _children(proc.pid)
            proc.send_signal(signal.SIGTERM)
            detail["server_exit"] = proc.wait(timeout=90)
            detail["children_alive_after_exit"] = sum(
                1 for pid in children if _alive(pid)
            )
            detail["server_log_tail"] = proc.stdout.read()[-2000:]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    gates["server_exited_0"] = gate(detail["server_exit"] == 0)
    # No child seen means the slot pools went unchecked.
    gates["server_children"] = gate(len(children), 1)
    gates["no_child_left"] = gate(detail["children_alive_after_exit"] == 0)
    return digests["sweep_service"], gates, detail, metrics_text


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
                             "BENCH_service_smoke.json, or "
                             "BENCH_service_soak.json with --soak)")
    parser.add_argument("--metrics-out", default=None,
                        help="also write the scraped /metrics text here")
    args = parser.parse_args(argv)

    started = time.monotonic()
    digest, gates, detail, metrics_text = run_smoke(
        args.workers, args.soak, args.timeout_s
    )
    wall_s = round(time.monotonic() - started, 3)
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(metrics_text)
        print(f"wrote metrics exposition to {args.metrics_out}")
    return write_record(
        "service_soak" if args.soak else "service_smoke",
        config={"workers": args.workers, "soak": args.soak,
                "sweep_simulation": SWEEP_SIM,
                "cluster_simulation": CLUSTER_SIM},
        end_to_end={"wall_s": wall_s},
        digest=digest,
        gates=gates,
        detail=detail,
        out=args.out,
    )


if __name__ == "__main__":
    raise SystemExit(main())
