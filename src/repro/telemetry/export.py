"""Trace exporters: Chrome/Perfetto trace-event JSON and CSV time series.

Both writers are deterministic byte-for-byte for a given event stream —
dict keys are sorted, rows follow fixed column orders, floats go through
Python's ``repr`` — and both write atomically (temp file + rename), so
two runs of the same config produce identical artifacts and an
interrupted run never leaves a truncated one.

The Perfetto export (load the JSON at https://ui.perfetto.dev) lays the
server out as up to four processes:

* **pid 1 "cores"** — one thread per core; complete ("X") slices for
  dispatch transitions, request execution segments, lend/reclaim
  transitions, and batch units. Reconstructed from event pairs; a crash
  or end-of-trace closes any still-open slice.
* **pid 2 "queues"** — one counter ("C") track per Primary VM showing
  request-queue depth at every enqueue/complete/discard.
* **pid 3 "requests"** — one async ("b"/"e") chain per request id: an
  outer request span with nested per-phase slices (nic, queueing,
  dispatch, execution, backend) from the critical-path tiling.
* **pid 4 "server"** — server-scope events, present when the trace holds
  any: an instant ("i") per software agent tick (``args.lends`` = lends
  initiated so far) and a "crash" slice from each crash to its restart
  (or to the end of the trace).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Tuple

from repro.telemetry.probes import ProbeEngine
from repro.telemetry.tracer import (
    AGENT_TICK,
    PHASE_AFTER,
    BATCH_DONE,
    BATCH_PREEMPT,
    BATCH_START,
    CORE_LEND,
    CORE_LEND_DONE,
    CORE_RECLAIM,
    CORE_RECLAIM_DONE,
    DEPTH_KINDS,
    Event,
    REQ_ARRIVAL,
    REQ_BLOCK,
    REQ_COMPLETE,
    REQ_DISPATCH,
    REQ_EXEC,
    REQ_FAIL,
    REQ_SHED,
    SERVER_CRASH,
    SERVER_RESTART,
)

PID_CORES = 1
PID_QUEUES = 2
PID_REQUESTS = 3
PID_SERVER = 4


def _us(ts_ns: int) -> float:
    """Trace-event timestamps are microseconds; keep ns precision."""
    return ts_ns / 1000.0


# ----------------------------------------------------------------------
# Core tracks: reconstruct slices from the per-core event sequence.
# ----------------------------------------------------------------------
def _core_slices(
    events: Iterable[Event], vm_names: Dict[int, str]
) -> List[Tuple[int, int, int, str]]:
    """``(core, start_ns, end_ns, name)`` slices, in close order.

    Every core-scoped event closes the core's open slice at its own
    timestamp; the "start" kinds then open the next one. Crashes close
    every open slice; so does the end of the stream.
    """
    open_spans: Dict[int, Tuple[int, str]] = {}  # core -> (start, name)
    slices: List[Tuple[int, int, int, str]] = []
    last_ts = 0

    def close(core: int, ts: int) -> None:
        span = open_spans.pop(core, None)
        if span is not None:
            slices.append((core, span[0], ts, span[1]))

    for ts, kind, req, vm, core, _extra in events:
        last_ts = ts
        if kind == SERVER_CRASH:
            for core_id in sorted(open_spans):
                close(core_id, ts)
            continue
        if core < 0:
            continue
        name = None
        if kind == REQ_DISPATCH:
            name = f"dispatch {vm_names.get(vm, vm)} #{req}"
        elif kind == REQ_EXEC:
            name = f"exec {vm_names.get(vm, vm)} #{req}"
        elif kind == CORE_LEND:
            name = "lend"
        elif kind == CORE_RECLAIM:
            name = f"reclaim {vm_names.get(vm, vm)}"
        elif kind == BATCH_START:
            name = f"batch {vm_names.get(vm, vm)}"
        elif kind not in (
            REQ_BLOCK, REQ_COMPLETE, CORE_LEND_DONE, CORE_RECLAIM_DONE,
            BATCH_DONE, BATCH_PREEMPT,
        ):
            continue  # not a core-track event
        close(core, ts)
        if name is not None:
            open_spans[core] = (ts, name)
    for core_id in sorted(open_spans):
        close(core_id, last_ts)
    return slices


# ----------------------------------------------------------------------
# Request chains: outer span + nested phase slices per request id.
# ----------------------------------------------------------------------
def _request_chains(events: Iterable[Event]):
    """Per request: ``(req, vm, arrival, end, completed, [(phase, s, e)])``."""
    open_reqs: Dict[int, Tuple[int, int, int, str, List]] = {}
    chains = []
    for ts, kind, req, vm, _core, _extra in events:
        if kind == REQ_ARRIVAL:
            open_reqs[req] = (vm, ts, ts, "nic", [])
            continue
        state = open_reqs.get(req)
        if state is None:
            continue
        svm, arrival, prev, phase, intervals = state
        if ts > prev:
            intervals.append((phase, prev, ts))
        if kind == REQ_COMPLETE:
            del open_reqs[req]
            chains.append((req, svm, arrival, ts, True, intervals))
        elif kind in (REQ_FAIL, REQ_SHED):
            del open_reqs[req]
            chains.append((req, svm, arrival, ts, False, intervals))
        else:
            open_reqs[req] = (
                svm, arrival, ts, PHASE_AFTER.get(kind, phase), intervals
            )
    chains.sort(key=lambda c: c[0])
    return chains


def _server_events(events: Iterable[Event]) -> List[dict]:
    """The server track: an instant per agent tick, then a slice per
    crash (to its restart, or to the end of the trace)."""
    ticks, windows, down, ts = [], [], None, 0
    for ts, kind, _req, _vm, _core, extra in events:
        if kind == AGENT_TICK:
            ticks.append({"ph": "i", "pid": PID_SERVER, "tid": 0, "s": "t",
                          "cat": "agent", "name": "agent tick", "ts": _us(ts),
                          "args": {"lends": extra}})
        elif kind == SERVER_CRASH and down is None:
            down = ts
        elif kind == SERVER_RESTART and down is not None:
            windows.append((down, ts))
            down = None
    if down is not None:
        windows.append((down, ts))
    return ticks + [{"ph": "X", "pid": PID_SERVER, "tid": 0, "cat": "fault",
                     "name": "crash", "ts": _us(start), "dur": _us(end - start)}
                    for start, end in windows]


# ----------------------------------------------------------------------
def write_perfetto_json(
    path: str,
    events: List[Event],
    vm_names: Dict[int, str],
    num_cores: int,
) -> int:
    """Write the Perfetto/Chrome trace; returns the trace-event count."""
    te: List[dict] = []
    server = _server_events(events)
    meta = [
        (PID_CORES, "cores"),
        (PID_QUEUES, "queues"),
        (PID_REQUESTS, "requests"),
    ]
    if server:
        meta.append((PID_SERVER, "server"))
    for pid, name in meta:
        te.append(
            {"ph": "M", "pid": pid, "name": "process_name",
             "args": {"name": name}}
        )
    for core in range(num_cores):
        te.append(
            {"ph": "M", "pid": PID_CORES, "tid": core, "name": "thread_name",
             "args": {"name": f"core {core}"}}
        )
    for vm_id in sorted(vm_names):
        te.append(
            {"ph": "M", "pid": PID_QUEUES, "tid": vm_id, "name": "thread_name",
             "args": {"name": f"rq {vm_names[vm_id]}"}}
        )

    for core, start, end, name in _core_slices(events, vm_names):
        te.append(
            {"ph": "X", "pid": PID_CORES, "tid": core, "cat": "core",
             "name": name, "ts": _us(start), "dur": _us(end - start)}
        )

    for ts, kind, _req, vm, _core, extra in events:
        if kind in DEPTH_KINDS and extra >= 0 and vm in vm_names:
            te.append(
                {"ph": "C", "pid": PID_QUEUES, "tid": vm, "cat": "queue",
                 "name": f"rq {vm_names[vm]}", "ts": _us(ts),
                 "args": {"pending": extra}}
            )

    for req, vm, arrival, end, completed, intervals in _request_chains(events):
        name = f"{vm_names.get(vm, vm)} #{req}"
        if not completed:
            name += " (failed)"
        te.append(
            {"ph": "b", "pid": PID_REQUESTS, "cat": "request", "id": req,
             "tid": 0, "name": name, "ts": _us(arrival)}
        )
        for phase, start, stop in intervals:
            te.append(
                {"ph": "b", "pid": PID_REQUESTS, "cat": "request", "id": req,
                 "tid": 0, "name": phase, "ts": _us(start)}
            )
            te.append(
                {"ph": "e", "pid": PID_REQUESTS, "cat": "request", "id": req,
                 "tid": 0, "name": phase, "ts": _us(stop)}
            )
        te.append(
            {"ph": "e", "pid": PID_REQUESTS, "cat": "request", "id": req,
             "tid": 0, "name": name, "ts": _us(end)}
        )

    te.extend(server)

    # Imported lazily: repro.core's package init pulls in the experiment
    # runner (and through it this package), so a module-level import here
    # would be circular when repro.config loads telemetry first.
    from repro.core.ioutil import atomic_open

    doc = {"displayTimeUnit": "ns", "traceEvents": te}
    with atomic_open(path) as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return len(te)


def write_timeseries_csv(path: str, probes: ProbeEngine) -> int:
    """Write the probe gauges as CSV (fixed column order); returns rows."""
    from repro.core.ioutil import atomic_open

    columns = probes.columns()
    names = list(columns)
    n = len(probes)
    with atomic_open(path, newline="") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(n):
            fh.write(
                ",".join(repr(columns[name][i]) for name in names) + "\n"
            )
    return n
