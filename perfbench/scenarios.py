"""The three benchmark workloads, built from a seed, run, and checked.

Each workload drives the program only through public APIs and the
configs or job bodies generated here from ``--seed``.  Load comes from
one process with at most two pool workers or client threads, and every
run starts from empty cache, checkpoint and job directories under the
run's own work directory.

* ``cluster-cold`` - ``run_cluster_scale`` from an empty cache: the
  per-request simulation does nearly all the work.
* ``cluster-warm`` - the 128-server config re-run over a cache that set-up
  filled: keying, cache reads, decoding and the barrier merge do the work.
* ``service-sweep`` - ``python -m repro serve`` driven over HTTP by two
  closed-loop clients: fresh sweep jobs over all five systems, then
  deduplicated resubmissions served from the job store.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.cluster_scale as cluster_scale
import repro.parallel as parallel
from repro.cluster_scale import (
    CheckpointStore,
    ClusterScaleConfig,
    RoutingPolicy,
    cluster_run_key,
    expected_server_rps,
)
from repro.config import SimulationConfig, SystemKind
from repro.core.export import server_result_from_dict, sweep_results_digest
from repro.core.presets import build_system
from repro.parallel import ResultCache
from repro.service import ServiceClient, ServiceError, parse_job_request
from repro.workloads.batch import BATCH_JOBS
from repro.workloads.suites import get_suite

from perfbench import hostspeed, metrics, tracing

#: Pool workers per run and client threads per service session (nproc).
WORKERS = 2
CLIENTS = 2

#: cluster-cold: nominal per-server load (about 256 routed requests per
#: server per epoch) on HardHarvest-Block with rebalancing and epoch
#: checkpoints.  Harvest VMs start at 2 base cores so the rebalancer can
#: move cores (at the 4-core cap every server is already full).
COLD_SERVERS = 8
COLD_EPOCHS = 3
COLD_EPOCH_MS = 20.0
COLD_ACCESSES = 24
HARVEST_BASE = 2
#: A run's work is fixed by --seconds, never by how fast the host is:
#: cold runs = seconds / COLD_RUN_S, at least three, each on its own
#: seed derived from --seed, so a run's figures average over seeds.
COLD_RUN_S = 5.0
COLD_MIN_OPS = 3

#: cluster-warm: the 128-server data-plane config, always on the data-plane
#: benchmark's seed.  Filling its cache costs what its few starved servers
#: cost: a server routed no requests runs its batch job to the simulator's
#: 10 s safety cap, and how many servers starve depends on the seed, so
#: set-up on the run's own seed would time the seed, not the program.
WARM_SEED = 0
WARM_SERVERS = 128
WARM_REQUESTS = 9_000
WARM_EPOCHS = 3
WARM_EPOCH_MS = 20.0
WARM_ACCESSES = 2
#: Passes = seconds / WARM_PASS_S; run_p90_s needs ten passes beyond
#: the 90th percentile.
WARM_PASS_S = 0.1
WARM_MIN_PASSES = 100

WARMUP_MS = 5.0

#: The workers=1 vs workers=2 cross-check: three servers over two
#: workers, so the pool splits them unevenly.
CROSS_SERVERS = 3
CROSS_EPOCHS = 2
CROSS_EPOCH_MS = 10.0
CROSS_ACCESSES = 4

#: service-sweep job bodies: every preset, one fresh seed per job.
JOB_HORIZON_MS = 10.0
JOB_WARMUP_MS = 2.0
JOB_ACCESSES = 8
#: job_p75_s needs 40 fresh jobs, hit_p90_ms 100 resubmissions; longer
#: runs scale both with --seconds.
MIN_JOBS = 40
MIN_HITS = 100
JOBS_PER_S = 2.0
HITS_PER_S = 30.0
POLL_S = 0.02

#: Fixed work of a traced run, independent of --seconds, so per-layer
#: totals compare across commits: this many untraced and traced
#: operations, alternating (service: one session of each).
TRACED_COLD_OPS = 1
TRACED_WARM_PASSES = 40
TRACED_JOBS = 10
TRACED_HITS = 200


@dataclass
class Context:
    root: str
    work_dir: str
    workload: str
    seed: int
    seconds: float
    traced: bool
    #: What each timed set-up launch reported (cluster-warm: the filled
    #: cache directory and the digest of the run that filled it).
    setup_info: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class Outcome:
    """What one run measured and checked."""

    #: name -> (value, sample count)
    end_to_end: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    #: name -> (value, sample count)
    layers: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    #: (check name, passed, detail)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: The same figures in plain wall time, before host-speed
    #: normalization (see hostspeed.py).
    wall: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    #: Raw timings behind the end-to-end figures, for the record.
    samples: Dict[str, List[float]] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def child_env(root: str) -> Dict[str, str]:
    paths = [os.path.join(root, "src"), root]
    extra = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths + ([extra] if extra else [])))


# ---------------------------------------------------------------------------
# Configs from the seed.
# ---------------------------------------------------------------------------

def cluster_system():
    system = build_system(SystemKind.HARDHARVEST_BLOCK)
    return replace(
        system, cluster=replace(system.cluster, harvest_vm_base_cores=HARVEST_BASE)
    )


def nominal_requests(system, servers: int, epochs: int, epoch_ms: float) -> int:
    cluster = system.cluster
    profiles = get_suite(SimulationConfig().suite)[: cluster.primary_vms_per_server]
    rps = expected_server_rps(profiles, cluster)
    return round(rps * epoch_ms / 1e3 * servers * epochs)


def cluster_config(seed: int, servers: int, epochs: int, epoch_ms: float,
                   accesses: int, requests: Optional[int] = None,
                   warmup_ms: float = WARMUP_MS):
    system = cluster_system()
    sim = SimulationConfig(seed=seed, accesses_per_segment=accesses,
                           warmup_ms=warmup_ms)
    cfg = ClusterScaleConfig(
        servers=servers,
        requests=requests or nominal_requests(system, servers, epochs, epoch_ms),
        epochs=epochs,
        epoch_ms=epoch_ms,
        warmup_ms=warmup_ms,
        routing=RoutingPolicy.POWER_OF_TWO,
    )
    return system, sim, cfg


def cold_config(seed: int):
    return cluster_config(seed, COLD_SERVERS, COLD_EPOCHS, COLD_EPOCH_MS,
                          COLD_ACCESSES)


def cold_seeds(seed: int, count: int) -> List[int]:
    return [seed * 1_000 + k for k in range(count)]


def cross_config(seed: int):
    return cluster_config(seed, CROSS_SERVERS, CROSS_EPOCHS, CROSS_EPOCH_MS,
                          CROSS_ACCESSES, warmup_ms=2.0)


def warm_config():
    return cluster_config(WARM_SEED, WARM_SERVERS, WARM_EPOCHS, WARM_EPOCH_MS,
                          WARM_ACCESSES, requests=WARM_REQUESTS)


def job_bodies(seed: int, count: int) -> List[Dict[str, Any]]:
    """``count`` sweep jobs over all five presets, each with its own seed."""
    return [
        {
            "kind": "sweep",
            "systems": "all",
            "seeds": [seed * 10_000 + i],
            "workers": WORKERS,
            "simulation": {
                "horizon_ms": JOB_HORIZON_MS,
                "warmup_ms": JOB_WARMUP_MS,
                "accesses_per_segment": JOB_ACCESSES,
            },
        }
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# Output checks and model statistics.
# ---------------------------------------------------------------------------

def server_problems(label: str, counters: Dict[str, int], busy: float,
                    cores: int) -> List[str]:
    """Conservation checks one server result exposes."""
    problems = []
    arrived = counters.get("requests_arrived", 0)
    measured = counters.get("requests_measured", 0)
    if measured > arrived:
        problems.append(f"{label}: measured {measured} > arrived {arrived}")
    if not 0.0 <= busy <= cores:
        problems.append(f"{label}: busy cores {busy} outside [0, {cores}]")
    return problems


def cluster_problems(result, cfg, cores: int) -> List[str]:
    problems = []
    if len(result.epochs) != cfg.epochs:
        problems.append(f"{len(result.epochs)} of {cfg.epochs} epochs")
    for epoch in result.epochs:
        servers = epoch.cluster.servers
        if len(servers) != cfg.servers:
            problems.append(
                f"epoch {epoch.epoch}: {len(servers)} of {cfg.servers} servers"
            )
        for index, server in enumerate(servers):
            problems += server_problems(
                f"epoch {epoch.epoch}/server {index}", server.counters,
                server.avg_busy_cores, cores,
            )
    return problems


def cluster_model(result) -> Dict[str, float]:
    """The simulated outcomes the paper reports, exact for a given seed."""
    summary = result.summary_dict()
    servers = [s for e in result.epochs for s in e.cluster.servers]
    return {
        "model.requests": summary["requests_arrived"],
        "model.p99_ms": summary["avg_p99_ms"],
        "model.p50_ms": summary["avg_p50_ms"],
        "model.batch_per_s": summary["batch_units_per_s"],
        "model.busy_cores": summary["avg_busy_cores"],
        "model.l2_hit_rate": statistics.fmean(s.l2_hit_rate for s in servers),
    }


def points_model(servers) -> Dict[str, float]:
    """Model statistics of sweep points: sums and plain means."""
    return {
        "model.requests": sum(s.counters.get("requests_arrived", 0) for s in servers),
        "model.p99_ms": statistics.fmean(s.avg_p99_ms() for s in servers),
        "model.p50_ms": statistics.fmean(s.avg_p50_ms() for s in servers),
        "model.batch_per_s": statistics.fmean(s.batch_units_per_s for s in servers),
        "model.busy_cores": statistics.fmean(s.avg_busy_cores for s in servers),
        "model.l2_hit_rate": statistics.fmean(s.l2_hit_rate for s in servers),
    }


def outcome_failures(outcomes) -> int:
    return sum(
        o.retried + len(o.quarantined) + o.pool_rebuilds for o in outcomes
    )


# ---------------------------------------------------------------------------
# Timing helpers.
# ---------------------------------------------------------------------------

def op_count(seconds: float, nominal_s: float, minimum: int) -> int:
    """Operations a run of ``seconds`` performs at the nominal op time."""
    return max(minimum, round(seconds / nominal_s))


def calibrate(reps: int = 5) -> float:
    """host.calib_ms: the host-speed kernel, median of ``reps`` runs."""
    return statistics.median(hostspeed.kernel_ms() for _ in range(reps))


def traced_pairs(ctx: Context, op: Callable[[int], float], count: int):
    """``count`` pairs of one untraced operation and one with every
    wrapper installed, alternating so host drift hits both alike;
    returns (untraced times, traced times, recorder)."""
    rec = tracing.Recorder(os.path.join(ctx.work_dir, "trace"))
    os.makedirs(rec.trace_dir)
    untraced, traced = [], []
    for i in range(count):
        untraced.append(op(2 * i))
        installed = tracing.install(rec)
        try:
            traced.append(op(2 * i + 1))
        finally:
            installed.uninstall()
    return untraced, traced, rec


def traced_layers(rec: tracing.Recorder, untraced: List[float],
                  traced: List[float]) -> Dict[str, float]:
    layers = tracing.layer_metrics(tracing.collect(rec), WORKERS)
    layers["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    return layers


def _dir_bytes(path: str) -> int:
    return ResultCache(root=path).disk_stats()["bytes"]


def op_figures(out: Outcome, wall: List[float], norm: List[float],
               requests: int) -> None:
    """run_s and sim_req_per_s of ``len(wall)`` operations that returned
    ``requests`` simulated requests in total."""
    n = len(wall)
    out.samples.update(run_s=norm, run_wall_s=wall)
    out.end_to_end["run_s"] = (statistics.median(norm), n)
    out.wall["run_s"] = (statistics.median(wall), n)
    out.end_to_end["sim_req_per_s"] = (requests / sum(norm), n)
    out.wall["sim_req_per_s"] = (requests / sum(wall), n)


# ---------------------------------------------------------------------------
# Set-up (what setup_s times, in a fresh interpreter).
# ---------------------------------------------------------------------------

def probe(ctx: Context) -> Tuple[Dict[str, Any], Callable[[], None]]:
    """Do the workload's set-up; return what the run needs from it and a
    clean-up to call once the set-up has been timed."""
    if ctx.workload == "cluster-cold":
        for seed in cold_seeds(ctx.seed, COLD_MIN_OPS):
            cold_config(seed)
        cross_config(ctx.seed)
        return {}, lambda: None
    if ctx.workload == "cluster-warm":
        system, sim, cfg = warm_config()
        cache_dir = os.path.join(ctx.work_dir, "warm-cache")
        result = cluster_scale.run_cluster_scale(
            system, sim, cfg, workers=WORKERS, cache=ResultCache(root=cache_dir)
        )
        return {"digest": result.digest(), "cache_dir": cache_dir}, lambda: None
    job_bodies(ctx.seed, MIN_JOBS)
    server = Server(ctx, os.path.join(ctx.work_dir, f"probe-{os.getpid()}"))
    return {}, server.stop


# ---------------------------------------------------------------------------
# cluster-cold
# ---------------------------------------------------------------------------

def run_cold(ctx: Context) -> Outcome:
    out = Outcome()
    count = TRACED_COLD_OPS if ctx.traced else op_count(
        ctx.seconds, COLD_RUN_S, COLD_MIN_OPS)
    # Traced: each untraced and traced pair runs the same seed.
    seeds = [s for s in cold_seeds(ctx.seed, count)
             for _ in range(2 if ctx.traced else 1)]
    digests: List[str] = []
    arrived: List[int] = []
    outcomes: List[Any] = []
    problems: List[str] = []
    dirs: List[str] = []
    checkpoints: List[int] = []
    stamps: List[Tuple[float, float]] = []

    def op(index: int) -> float:
        system, sim, cfg = cold_config(seeds[len(dirs)])
        op_dir = os.path.join(ctx.work_dir, f"cold-{len(dirs)}")
        dirs.append(op_dir)
        cache = ResultCache(root=os.path.join(op_dir, "cache"))
        store = CheckpointStore(root=os.path.join(op_dir, "checkpoints"),
                                run_key=cluster_run_key(system, sim, cfg, BATCH_JOBS))
        start = time.monotonic()
        result = cluster_scale.run_cluster_scale(
            system, sim, cfg, workers=WORKERS, cache=cache, checkpoint=store
        )
        digests.append(result.digest())
        end = time.monotonic()
        stamps.append((start, end))
        arrived.append(result.requests_arrived())
        checkpoints.append(len(os.listdir(store.run_dir)))
        problems.extend(cluster_problems(
            result, cfg, system.cluster.cores_per_server))
        if not out.layers:
            out.layers = {k: (v, 1) for k, v in cluster_model(result).items()}
        return end - start

    observer = tracing.observe_outcomes(outcomes)
    sampler = None
    try:
        if ctx.traced:
            wall, traced, rec = traced_pairs(ctx, op, count)
            layers = traced_layers(rec, wall, traced)
            layers["parallel.cache_bytes"] = sum(
                _dir_bytes(os.path.join(d, "cache")) for d in dirs[1::2])
            out.layers.update({k: (v, len(traced)) for k, v in layers.items()})
        else:
            sampler = hostspeed.Sampler()
            wall = [op(i) for i in range(count)]
            norm = [sampler.normalize(*stamp) for stamp in stamps]
            op_figures(out, wall, norm, sum(arrived))
    finally:
        observer.uninstall()
        if sampler is not None:
            sampler.stop()

    out.digest = hashlib.sha256("\n".join(digests[:count]).encode()).hexdigest()
    out.check("checkpoint-per-epoch", set(checkpoints) == {COLD_EPOCHS},
              f"checkpoint files per run: {checkpoints}")
    out.check("conservation", not problems, "; ".join(problems[:3]))
    out.attempted = COLD_SERVERS * COLD_EPOCHS * len(digests)
    out.failed = outcome_failures(outcomes)

    # Determinism across pool sizes, on an uneven split.
    small_system, small_sim, small_cfg = cross_config(ctx.seed)
    one = cluster_scale.run_cluster_scale(small_system, small_sim, small_cfg, workers=1)
    two = cluster_scale.run_cluster_scale(small_system, small_sim, small_cfg,
                                          workers=WORKERS)
    out.check("workers-1-equals-2", one.digest() == two.digest(),
              f"{one.digest()[:12]} vs {two.digest()[:12]}")
    return out


# ---------------------------------------------------------------------------
# cluster-warm
# ---------------------------------------------------------------------------

def run_warm(ctx: Context) -> Outcome:
    out = Outcome()
    system, sim, cfg = warm_config()
    cores = system.cluster.cores_per_server
    cache_dir = ctx.setup_info[0]["cache_dir"]
    fill_digest = ctx.setup_info[0]["digest"]
    state = {"bad_digest": 0, "misses": 0, "first": None}
    arrived: List[int] = []
    # The passes are single-threaded: the host-speed kernel runs in the
    # same thread between passes, and each pass is normalized by the
    # kernel times on either side of it.
    kernels = [hostspeed.kernel_ms()]

    def op(index: int) -> float:
        # A fresh ResultCache per pass: its memory layer starts empty, as
        # in a new process, so every hit reads and decodes from disk.
        cache = ResultCache(root=cache_dir)
        start = time.perf_counter()
        result = cluster_scale.run_cluster_scale(
            system, sim, cfg, workers=WORKERS, cache=cache
        )
        digest = result.digest()
        elapsed = time.perf_counter() - start
        kernels.append(hostspeed.kernel_ms())
        state["bad_digest"] += digest != fill_digest
        state["misses"] += cache.stats.misses
        arrived.append(result.requests_arrived())
        if state["first"] is None:
            state["first"] = result
        return elapsed

    outcomes: List[Any] = []
    observer = tracing.observe_outcomes(outcomes)
    try:
        if ctx.traced:
            wall, traced, rec = traced_pairs(ctx, op, TRACED_WARM_PASSES)
            layers = traced_layers(rec, wall, traced)
            layers["parallel.cache_bytes"] = _dir_bytes(cache_dir)
            out.layers = {k: (v, len(traced)) for k, v in layers.items()}
        else:
            wall = [op(i) for i in range(
                op_count(ctx.seconds, WARM_PASS_S, WARM_MIN_PASSES))]
            norm = [
                w * hostspeed.REF_MS * 2 / (kernels[i] + kernels[i + 1])
                for i, w in enumerate(wall)
            ]
            op_figures(out, wall, norm, sum(arrived))
            out.end_to_end["run_p90_s"] = (metrics.tail_value(norm, 90.0), len(norm))
            out.wall["run_p90_s"] = (metrics.tail_value(wall, 90.0), len(wall))
    finally:
        observer.uninstall()

    out.digest = fill_digest
    passes = len(arrived)
    out.check("warm-digest-equals-fill", state["bad_digest"] == 0,
              f"{state['bad_digest']} of {passes} pass(es) differ from the fill")
    out.check("warm-all-hits", state["misses"] == 0,
              f"{state['misses']} cache miss(es)")
    problems = cluster_problems(state["first"], cfg, cores)
    out.check("conservation", not problems, "; ".join(problems[:3]))
    for key, value in cluster_model(state["first"]).items():
        out.layers.setdefault(key, (value, 1))
    out.attempted = cfg.servers * cfg.epochs * passes
    out.failed = outcome_failures(outcomes)
    return out


# ---------------------------------------------------------------------------
# service-sweep
# ---------------------------------------------------------------------------

class Server:
    """``repro serve`` in a child process with one job slot; traced, it
    runs through ``serve_traced.py`` instead."""

    def __init__(self, ctx: Context, state_dir: str,
                 trace_dir: Optional[str] = None):
        serve = ["serve", "--port", "0", "--service-workers", "1",
                 "--cache-dir", os.path.join(state_dir, "cache")]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro"] + serve
        else:
            cmd = [sys.executable, os.path.join(ctx.root, "perfbench", "serve_traced.py"),
                   trace_dir] + serve
        os.makedirs(state_dir, exist_ok=True)
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=child_env(ctx.root), cwd=state_dir,
        )
        self.lines: List[str] = []
        self.port = None
        for line in self.proc.stdout:
            self.lines.append(line)
            if "listening on http://" in line:
                self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
                break
        if self.port is None:
            self.proc.wait()
            raise RuntimeError("server did not start: " + "".join(self.lines[-5:]))
        # Keep reading the log so the server never blocks on a full pipe.
        self._drain = threading.Thread(target=self._read, daemon=True)
        self._drain.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._drain.join(timeout=10)
        return code


#: One client operation: (monotonic start, end or None when it failed,
#: result payload or None, job id).
Op = Tuple[float, Optional[float], Optional[Dict[str, Any]], str]


class Session:
    """Two closed-loop clients: fresh jobs, then resubmissions."""

    def __init__(self, client: ServiceClient):
        self.client = client
        self.lock = threading.Lock()
        self.request_s: List[float] = []
        self.non2xx = 0
        self.errors: List[str] = []
        self.not_deduped = 0

    def call(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        except ServiceError as exc:
            if exc.status != 202:
                with self.lock:
                    self.non2xx += 1
            raise
        finally:
            self.request_s.append(time.perf_counter() - start)

    def fresh(self, body) -> Op:
        """Submit a new job and poll until its result body arrives."""
        start = time.monotonic()
        job_id = ""
        try:
            job_id = self.call(self.client.submit, body)["job_id"]
            while True:
                try:
                    payload = self.call(self.client.result, job_id)
                    break
                except ServiceError as exc:
                    if exc.status != 202:
                        raise
                    time.sleep(POLL_S)
        except (ServiceError, OSError) as exc:
            self.errors.append(f"job {job_id[:12]}: {exc}")
            return start, None, None, job_id
        return start, time.monotonic(), payload, job_id

    def resubmit(self, body) -> Op:
        """Submit a finished job again and fetch its result."""
        start = time.monotonic()
        try:
            status = self.call(self.client.submit, body)
            payload = self.call(self.client.result, status["job_id"])
        except (ServiceError, OSError) as exc:
            self.errors.append(f"resubmission: {exc}")
            return start, None, None, ""
        if status["created"]:
            with self.lock:
                self.not_deduped += 1
        return start, time.monotonic(), payload, status["job_id"]

    def run(self, bodies, hits: int):
        """Phase 1 then phase 2; returns both phases' ops and their
        (start, end) stamps."""
        jobs: List[Any] = [None] * len(bodies)
        resubmits: List[Any] = [None] * hits

        def clients(count: int, work: Callable[[int], Op], into: List[Any]):
            counter = itertools.count()

            def loop():
                for index in counter:
                    if index >= count:
                        return
                    into[index] = work(index)

            threads = [threading.Thread(target=loop) for _ in range(CLIENTS)]
            start = time.monotonic()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return start, time.monotonic()

        phase1 = clients(len(bodies), lambda i: self.fresh(bodies[i]), jobs)
        phase2 = clients(hits, lambda i: self.resubmit(bodies[i % len(bodies)]),
                         resubmits)
        return jobs, resubmits, phase1, phase2


def session_sizes(seconds: float) -> Tuple[int, int]:
    return (max(MIN_JOBS, round(JOBS_PER_S * seconds)),
            max(MIN_HITS, round(HITS_PER_S * seconds)))


def _prom_value(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            return float(line.rsplit(" ", 1)[1])
    raise KeyError(name)


def _latencies(ops: List[Op], normalize: Callable[[float, float], float],
               scale: float = 1.0) -> List[float]:
    """Per-op latency; a failed op counts as +inf in every figure."""
    return [normalize(start, end) * scale if end is not None else math.inf
            for start, end, _, _ in ops]


def run_service(ctx: Context) -> Outcome:
    out = Outcome()
    cores = build_system(SystemKind.HARDHARVEST_BLOCK).cluster.cores_per_server

    def serve_session(label: str, jobs_n: int, hits_n: int,
                      trace_dir: Optional[str] = None):
        bodies = job_bodies(ctx.seed, jobs_n)
        server = Server(ctx, os.path.join(ctx.work_dir, label), trace_dir)
        try:
            client = ServiceClient(port=server.port, timeout_s=120.0)
            session = Session(client)
            jobs, resubmits, phase1, phase2 = session.run(bodies, hits_n)
            status = [client.status(job_id) for _, _, _, job_id in jobs if job_id]
            text = client.metrics()
        finally:
            code = server.stop()
        out.check(f"{label}-server-exit-0", code == 0, f"exit code {code}")
        return bodies, session, jobs, resubmits, phase1, phase2, status, text

    def wall(start: float, end: float) -> float:
        return end - start

    sampler = None
    try:
        if ctx.traced:
            plain = serve_session("plain", TRACED_JOBS, TRACED_HITS)
            trace_dir = os.path.join(ctx.work_dir, "trace")
            os.makedirs(trace_dir)
            traced = serve_session("traced", TRACED_JOBS, TRACED_HITS, trace_dir)
            bodies, session, jobs, resubmits, phase1, phase2, status, text = traced
            layers = tracing.layer_metrics(
                tracing.collect(tracing.Recorder(trace_dir)), WORKERS)
            session_s = [wall(*p[4]) + wall(*p[5]) for p in (plain, traced)]
            layers["trace.overhead_frac"] = session_s[1] / session_s[0] - 1.0
            layers["parallel.cache_bytes"] = _dir_bytes(
                os.path.join(ctx.work_dir, "traced", "cache"))
            layers["service.http_ms"] = statistics.median(session.request_s) * 1e3
            layers["service.dedupe_ratio"] = (
                _prom_value(text, "repro_service_deduped_total")
                / _prom_value(text, "repro_service_submissions_total"))
            layers["service.queue_wait_s"] = statistics.median(
                s["started_s"] - s["submitted_s"] for s in status)
            layers["service.exec_s"] = statistics.median(
                s["finished_s"] - s["started_s"] for s in status)
            layers["service.non2xx"] = session.non2xx
            out.layers = {k: (v, len(jobs)) for k, v in layers.items()}
        else:
            sampler = hostspeed.Sampler()
            jobs_n, hits_n = session_sizes(ctx.seconds)
            result = serve_session("session", jobs_n, hits_n)
            bodies, session, jobs, resubmits, phase1, phase2, status, text = result
            norm = sampler.normalize
    finally:
        if sampler is not None:
            sampler.stop()

    served = [payload for _, _, payload, _ in jobs]
    ok_payloads = [p for p in served if p is not None]
    points = [server_result_from_dict(r) for p in ok_payloads
              for r in p["results"].values()]
    if not ctx.traced:
        arrived = sum(s.counters.get("requests_arrived", 0) for s in points)
        for figures, clock in ((out.end_to_end, norm), (out.wall, wall)):
            job_s = _latencies(jobs, clock)
            hit_ms = _latencies(resubmits, clock, 1e3)
            figures["run_s"] = (clock(*phase1) + clock(*phase2), 1)
            figures["sim_req_per_s"] = (arrived / clock(*phase1), len(jobs))
            figures["job_p50_s"] = (statistics.median(job_s), len(job_s))
            figures["job_p75_s"] = (metrics.tail_value(job_s, 75.0), len(job_s))
            figures["hit_p50_ms"] = (statistics.median(hit_ms), len(hit_ms))
            figures["hit_p90_ms"] = (metrics.tail_value(hit_ms, 90.0), len(hit_ms))
            if clock is norm:
                out.samples.update(job_s=job_s, hit_ms=hit_ms)

    digests = [p["digest"] for p in ok_payloads]
    out.digest = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    failed_jobs = len(served) - len(ok_payloads)
    out.check("every-job-served", failed_jobs == 0,
              "; ".join(session.errors[:3]))
    problems = []
    for payload in ok_payloads:
        if len(payload["results"]) != 5:
            problems.append(f"{len(payload['results'])} of 5 points")
        for label, r in payload["results"].items():
            problems += server_problems(label, r["counters"], r["avg_busy_cores"],
                                        cores)
    out.check("conservation", not problems, "; ".join(problems[:3]))
    by_job = {job_id: p["digest"] for _, _, p, job_id in jobs if p is not None}
    stale = session.not_deduped + sum(
        1 for _, _, payload, job_id in resubmits
        if payload is None or payload["digest"] != by_job.get(job_id)
    )
    out.check("resubmissions-dedupe-to-same-digest", stale == 0,
              f"{stale} of {len(resubmits)} resubmission(s) wrong")

    # One job re-run directly, outside the service, must match.
    direct = parallel.run_sweep(parse_job_request(bodies[0]).points(),
                                workers=WORKERS)
    direct_digest = sweep_results_digest(direct.results)
    out.check("served-equals-direct-run_sweep",
              served[0] is not None and served[0]["digest"] == direct_digest,
              f"direct {direct_digest[:12]}")
    if points:
        for key, value in points_model(points).items():
            out.layers.setdefault(key, (value, len(ok_payloads)))
    # Every non-2xx response fails exactly one job or resubmission, so
    # failed operations count each once; points the server retried count
    # too.  The service exposes no pool rebuilds, so those are left out.
    out.attempted = len(jobs) + len(resubmits)
    out.failed = sum(1 for _, end, _, _ in jobs + resubmits if end is None) + sum(
        p.get("retried", 0) for p in ok_payloads)
    return out


RUNNERS = {
    "cluster-cold": run_cold,
    "cluster-warm": run_warm,
    "service-sweep": run_service,
}
