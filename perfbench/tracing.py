"""The traced run: spans recorded around each layer's public entry points.

Tracing lives entirely in the benchmark.  :func:`install` replaces each
entry point named in :data:`PATCHES` with a wrapper, at the place its
caller looks the name up, and :func:`uninstall` puts the originals back.
Install before any simulator object or process pool is built: forked
pool workers then inherit the wrappers, and the queue methods that
``ServerSimulation`` binds at build time are the wrapped ones.

Each wrapper call records one span ``(name, start_ns, end_ns, parent)``
in a per-thread list that stays in memory until the run ends.  A layer's
self time is its span's duration minus the part of that interval its
child spans cover (:func:`aggregate`).  Pool workers cannot share the
coordinator's memory, so the ``execute_payload`` wrapper aggregates the
worker's spans after each point and appends the sums to a per-process
file in the trace directory; :func:`collect` merges those files with the
coordinator's own aggregates.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[str, int, int, int]


class Recorder:
    """Spans and counters of one process."""

    def __init__(self, trace_dir: Optional[str] = None):
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.threads: List[List[Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)

    # -- recording -----------------------------------------------------
    def _state(self) -> Tuple[List[Any], List[int]]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self.threads.append(local.spans)
            return local.spans, local.stack

    def call(self, name: str, fn: Callable, args, kwargs):
        """Run ``fn`` inside a span called ``name``."""
        spans, stack = self._state()
        index = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[index] = (name, start, end, parent)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def reset(self) -> None:
        """Drop every span and counter, and any open stack or held lock
        inherited from a forking parent (pool workers call this)."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self.threads = []
        self.counters = defaultdict(float)

    def spans(self) -> List[List[Span]]:
        return [[s for s in thread if s is not None] for thread in self.threads]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """This process's spans and counters, aggregated."""
        out = aggregate(self.spans())
        for name, value in self.counters.items():
            out.setdefault("counters", {})[name] = value
        return out


def aggregate(threads: Iterable[Sequence[Span]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``n`` calls, ``total_ns`` and ``self_ns``.

    ``parent`` indexes the same thread's list (-1 for a root).  A span's
    self time is its duration minus the union of its children's
    intervals, clipped to its own.  ``total_ns`` counts only outermost
    occurrences of a name, so a recursive entry point is not counted
    once per level; ``self_ns`` sums over every level.
    """
    out: Dict[str, Dict[str, float]] = {}
    for spans in threads:
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent].append((start, end))
        for index, (name, start, end, parent) in enumerate(spans):
            covered = _covered(children.get(index, ()), start, end)
            entry = out.setdefault(name, {"n": 0, "total_ns": 0, "self_ns": 0})
            entry["n"] += 1
            entry["self_ns"] += (end - start) - covered
            if not _has_ancestor_named(spans, parent, name):
                entry["total_ns"] += end - start
    return out


def _covered(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _has_ancestor_named(spans: Sequence[Span], parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def merge(into: Dict[str, Dict[str, float]], other: Dict[str, Dict[str, float]]):
    for name, entry in other.items():
        target = into.setdefault(name, {})
        for key, value in entry.items():
            target[key] = target.get(key, 0) + value
    return into


# ---------------------------------------------------------------------------
# Wrappers.
# ---------------------------------------------------------------------------

def _span(rec: Recorder, name: str, fn: Callable,
          after: Optional[Callable] = None) -> Callable:
    def wrapper(*args, **kwargs):
        result = rec.call(name, fn, args, kwargs)
        if after is not None:
            after(rec, args, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _counted(rec: Recorder, name: str, fn: Callable) -> Callable:
    """Count-only wrapper, for constructors too frequent to span."""
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _sim_run(rec: Recorder, fn: Callable) -> Callable:
    def wrapper(self, *args, **kwargs):
        before = self.events_fired
        try:
            return rec.call("sim.run", fn, (self,) + args, kwargs)
        finally:
            rec.count("sim.events", self.events_fired - before)

    wrapper.__wrapped__ = fn
    return wrapper


def _execute_payload(rec: Recorder, fn: Callable) -> Callable:
    """Worker entry point: in a pool worker, flush this point's
    aggregates to the trace directory and start the next point empty."""
    def wrapper(payload_json):
        worker = os.getpid() != rec.pid
        if worker:
            rec.reset()  # drop what the forking coordinator left behind
        try:
            return rec.call("parallel.execute_payload", fn, (payload_json,), {})
        finally:
            if worker:
                totals = rec.totals()
                rec.reset()
                path = os.path.join(rec.trace_dir, f"worker-{os.getpid()}.jsonl")
                with open(path, "a") as fh:
                    fh.write(json.dumps(totals) + "\n")

    wrapper.__wrapped__ = fn
    return wrapper


def _after_route(rec, args, result):
    rec.count("cluster_scale.routed", int(sum(result.counts)))


def _after_rebalance(rec, args, result):
    rec.count("cluster_scale.rebalance_moves", len(result.moves))


def _after_checkpoint(rec, args, path):
    rec.count("cluster_scale.checkpoint_bytes", os.path.getsize(path))


def _after_get_many(rec, args, result):
    rec.count("parallel.cache_hits", len(result))
    rec.count("parallel.cache_misses", len(args[1]) - len(result))


def _after_put_many(rec, args, stored):
    rec.count("parallel.cache_puts", stored)


def _after_run_sweep(rec, args, outcome):
    rec.count("parallel.retries", outcome.retried + len(outcome.quarantined))
    rec.count("parallel.pool_rebuilds", outcome.pool_rebuilds)


def _after_access_batch(rec, args, result):
    rec.count("mem.accesses", len(args[1]))


#: (module, attribute path, span name, after-hook).  Attribute paths with
#: a dot patch a class attribute; several rows may wrap one function
#: where callers import it by name into their own module.
PATCHES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    # cluster_scale
    ("repro.cluster_scale.runner", "run_cluster_scale", "cluster_scale.run", None),
    ("repro.cluster_scale", "run_cluster_scale", "cluster_scale.run", None),
    ("repro.cluster_scale.runner", "route_epoch", "cluster_scale.route", _after_route),
    ("repro.cluster_scale.runner", "rebalance_harvest", "cluster_scale.rebalance",
     _after_rebalance),
    ("repro.cluster_scale.result", "ClusterScaleResult.digest",
     "cluster_scale.digest", None),
    ("repro.cluster_scale.resilience", "CheckpointStore.save",
     "cluster_scale.checkpoint", _after_checkpoint),
    # parallel
    ("repro.parallel.sweep", "SweepPoint.payload_json", "parallel.payload_json", None),
    ("repro.parallel.cache", "ResultCache.key_json", "parallel.key_json", None),
    ("repro.parallel.cache", "ResultCache.get_many", "parallel.get_many",
     _after_get_many),
    ("repro.parallel.cache", "ResultCache.put_many", "parallel.put_many",
     _after_put_many),
    ("repro.parallel.runner", "run_sweep", "parallel.run_sweep", _after_run_sweep),
    ("repro.parallel", "run_sweep", "parallel.run_sweep", _after_run_sweep),
    # core
    ("repro.core.export", "server_result_from_dict", "core.decode", None),
    ("repro.parallel.runner", "server_result_from_dict", "core.decode", None),
    ("repro.cluster_scale.result", "server_result_from_dict", "core.decode", None),
    ("repro.core.export", "server_result_to_dict", "core.encode", None),
    ("repro.parallel.runner", "server_result_to_dict", "core.encode", None),
    ("repro.cluster_scale.result", "server_result_to_dict", "core.encode", None),
    ("repro.core.serialize", "from_dict", "core.deserialize", None),
    # cluster
    ("repro.cluster.server", "ServerSimulation.__init__", "cluster.build", None),
    ("repro.cluster.server", "ServerSimulation.run", "cluster.sim", None),
    # mem
    ("repro.mem.hierarchy", "CoreMemory.access_batch", "mem.walk",
     _after_access_batch),
    ("repro.mem.hierarchy", "CoreMemory.flush_harvest_region", "mem.flush", None),
    ("repro.mem.hierarchy", "CoreMemory.flush_private_full", "mem.flush", None),
    # workloads
    ("repro.workloads.memory_profile", "ServiceMemory.sample", "workloads.sample",
     None),
    ("repro.workloads.memory_profile", "BatchMemory.sample", "workloads.sample",
     None),
    ("repro.cluster.server", "generate_arrivals_correlated", "workloads.arrivals",
     None),
    ("repro.cluster.server", "generate_arrivals_from_trace", "workloads.arrivals",
     None),
    # service
    ("repro.service.jobs", "parse_job_request", "service.parse", None),
    ("repro.service.spec", "parse_job_request", "service.parse", None),
    ("repro.service.jobs", "job_content_id", "service.identity", None),
    ("repro.service.spec", "job_content_id", "service.identity", None),
    ("repro.service.jobs", "JobStore.read_result", "service.store_read", None),
    ("repro.service.jobs", "JobStore.save", "service.store_write", None),
    ("repro.service.jobs", "JobStore.write_result", "service.store_write", None),
)

#: Queue methods wrapped under one span name: (module, class, span name,
#: methods); None means every public method the class defines.
CLASS_PATCHES = (
    ("repro.hw.queue_manager", "QueueManager", "hw.qm",
     ("enqueue", "dequeue", "has_ready", "mark_blocked", "mark_ready",
      "complete")),
    ("repro.cluster.vm", "SoftwareQueue", "cluster.swq", None),
)

#: Every harvesting agent class defining its own ``on_core_idle``.
AGENT_MODULES = (
    "repro.harvest.base",
    "repro.harvest.hardware",
    "repro.harvest.software",
    "repro.harvest.adaptive",
)


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _public_methods(cls: type) -> List[str]:
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
        and not isinstance(value, staticmethod)
    ]


def _agent_classes() -> List[type]:
    out = []
    for module_name in AGENT_MODULES:
        module = importlib.import_module(module_name)
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module_name
                    and "on_core_idle" in vars(value)):
                out.append(value)
    return out


def targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """Every (owner, attribute, span name, hook) :func:`install` wraps."""
    out = []
    for module, path, name, hook in PATCHES:
        owner, attr = _resolve(module, path)
        out.append((owner, attr, name, hook))
    for module, cls_name, name, methods in CLASS_PATCHES:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods or _public_methods(cls):
            out.append((cls, method, name, None))
    for cls in _agent_classes():
        out.append((cls, "on_core_idle", "harvest.idle", None))
    return out


class Installed:
    """Handle returned by :func:`install`; :meth:`uninstall` restores."""

    def __init__(self, saved):
        self.saved = saved

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved = []


def install(rec: Recorder) -> Installed:
    """Wrap every entry point; the same original gets one shared wrapper
    however many names it is imported under."""
    saved = []
    wrappers: Dict[int, Callable] = {}

    def patch(owner, attr, make):
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = wrappers.get(id(original))
        if wrapper is None:
            wrapper = make(original)
            wrappers[id(original)] = wrapper
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    for owner, attr, name, hook in targets():
        patch(owner, attr, lambda fn, name=name, hook=hook: _span(rec, name, fn, hook))
    sim_engine = importlib.import_module("repro.sim.engine")
    patch(sim_engine.Simulator, "run", lambda fn: _sim_run(rec, fn))
    runner = importlib.import_module("repro.parallel.runner")
    patch(runner, "execute_payload", lambda fn: _execute_payload(rec, fn))
    patch(importlib.import_module("repro.parallel"), "execute_payload",
          lambda fn: _execute_payload(rec, fn))
    replacement = importlib.import_module("repro.mem.replacement")
    patch(replacement.CacheSet, "__init__",
          lambda fn: _counted(rec, "mem.sets_built", fn))
    return Installed(saved)


def observe_outcomes(sink: List[Any]) -> Installed:
    """Keep every :class:`SweepOutcome` the coordinator produces, without
    timing anything, so an untraced run can count retried, quarantined
    and pool-rebuild failures that ``run_cluster_scale`` does not return."""
    runner = importlib.import_module("repro.parallel.runner")
    package = importlib.import_module("repro.parallel")
    original = runner.run_sweep

    def wrapper(*args, **kwargs):
        outcome = original(*args, **kwargs)
        sink.append(outcome)
        return outcome

    wrapper.__wrapped__ = original
    saved = [(runner, "run_sweep", original), (package, "run_sweep", package.run_sweep)]
    runner.run_sweep = wrapper
    package.run_sweep = wrapper
    return Installed(saved)


def collect(rec: Recorder) -> Dict[str, Dict[str, float]]:
    """This process's aggregates merged with every worker file, plus any
    aggregates a traced server wrote to the trace directory."""
    totals = rec.totals()
    if rec.trace_dir and os.path.isdir(rec.trace_dir):
        for name in sorted(os.listdir(rec.trace_dir)):
            path = os.path.join(rec.trace_dir, name)
            with open(path) as fh:
                for line in fh:
                    if line.strip():
                        merge(totals, json.loads(line))
    return totals


# ---------------------------------------------------------------------------
# Aggregates -> per-layer metrics.
# ---------------------------------------------------------------------------

def _total_s(agg, *names) -> float:
    return sum(agg.get(n, {}).get("total_ns", 0) for n in names) / 1e9


def _self_s(agg, name) -> float:
    return agg.get(name, {}).get("self_ns", 0) / 1e9


def _calls(agg, *names) -> float:
    return sum(agg.get(n, {}).get("n", 0) for n in names)


def layer_metrics(agg: Dict[str, Dict[str, float]], workers: int) -> Dict[str, float]:
    """The span-derived per-layer metrics (service client-side figures,
    cache bytes and model statistics are added by the workload)."""
    counters = agg.get("counters", {})
    hits = counters.get("parallel.cache_hits", 0)
    misses = counters.get("parallel.cache_misses", 0)
    pool_wait = _self_s(agg, "parallel.run_sweep")
    busy = _total_s(agg, "parallel.execute_payload")
    accesses = counters.get("mem.accesses", 0)
    walk = _total_s(agg, "mem.walk")
    sim_run = _total_s(agg, "sim.run")
    events = counters.get("sim.events", 0)
    return {
        "cluster_scale.route_s": _total_s(agg, "cluster_scale.route"),
        "cluster_scale.routed": counters.get("cluster_scale.routed", 0),
        "cluster_scale.self_s": _self_s(agg, "cluster_scale.run"),
        "cluster_scale.digest_s": _total_s(agg, "cluster_scale.digest"),
        "cluster_scale.rebalance_moves": counters.get(
            "cluster_scale.rebalance_moves", 0),
        "cluster_scale.checkpoint_s": _total_s(agg, "cluster_scale.checkpoint"),
        "cluster_scale.checkpoint_writes": _calls(agg, "cluster_scale.checkpoint"),
        "cluster_scale.checkpoint_bytes": counters.get(
            "cluster_scale.checkpoint_bytes", 0),
        "parallel.key_s": _total_s(agg, "parallel.payload_json", "parallel.key_json"),
        "parallel.keys": _calls(agg, "parallel.key_json"),
        "parallel.cache_get_s": _total_s(agg, "parallel.get_many"),
        "parallel.cache_hits": hits,
        "parallel.cache_misses": misses,
        "parallel.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "parallel.cache_put_s": _total_s(agg, "parallel.put_many"),
        "parallel.cache_puts": counters.get("parallel.cache_puts", 0),
        "parallel.pool_wait_s": pool_wait,
        "parallel.worker_busy_frac": (
            busy / (workers * pool_wait) if pool_wait > 0 else 0.0),
        "parallel.retries": counters.get("parallel.retries", 0),
        "parallel.pool_rebuilds": counters.get("parallel.pool_rebuilds", 0),
        "core.decode_s": _total_s(agg, "core.decode"),
        "core.encode_s": _total_s(agg, "core.encode"),
        "core.deserialize_s": _total_s(agg, "core.deserialize"),
        "cluster.build_s": _total_s(agg, "cluster.build"),
        "cluster.builds": _calls(agg, "cluster.build"),
        "cluster.sim_s": _total_s(agg, "cluster.sim"),
        "cluster.swq_ops": _calls(agg, "cluster.swq"),
        "cluster.swq_s": _total_s(agg, "cluster.swq"),
        "sim.events": events,
        "sim.self_s": _self_s(agg, "sim.run"),
        "sim.events_per_s": events / sim_run if sim_run > 0 else 0.0,
        "mem.accesses": accesses,
        "mem.walk_s": walk,
        "mem.ns_per_access": walk * 1e9 / accesses if accesses else 0.0,
        "mem.sets_built": counters.get("mem.sets_built", 0),
        "mem.flushes": _calls(agg, "mem.flush"),
        "mem.flush_s": _total_s(agg, "mem.flush"),
        "hw.qm_ops": _calls(agg, "hw.qm"),
        "hw.qm_s": _total_s(agg, "hw.qm"),
        "workloads.samples": _calls(agg, "workloads.sample"),
        "workloads.sample_s": _total_s(agg, "workloads.sample"),
        "workloads.arrivals_s": _total_s(agg, "workloads.arrivals"),
        "harvest.idle_calls": _calls(agg, "harvest.idle"),
        "harvest.idle_s": _total_s(agg, "harvest.idle"),
        "service.parse_s": _total_s(agg, "service.parse"),
        "service.identity_s": _total_s(agg, "service.identity"),
        "service.store_reads": _calls(agg, "service.store_read"),
        "service.store_read_s": _total_s(agg, "service.store_read"),
        "service.store_writes": _calls(agg, "service.store_write"),
        "service.store_write_s": _total_s(agg, "service.store_write"),
        # Client-side service figures; the service workload measures them.
        "service.http_ms": 0.0,
        "service.dedupe_ratio": 0.0,
        "service.queue_wait_s": 0.0,
        "service.exec_s": 0.0,
        "service.non2xx": 0,
    }
