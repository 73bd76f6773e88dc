"""The HTTP front end: routing, job slots, graceful shutdown.

Stdlib only: :class:`http.server.ThreadingHTTPServer` parses each
request (request line + headers + Content-Length body, ``Connection:
close``), because the service's API surface is six routes and a
framework dependency would break the no-new-hard-deps rule.

Concurrency model
-----------------

* Every connection gets its own thread, which reads the request, routes
  it and writes the reply; it never simulates.  A submission is parsed
  and hashed into its job id on that thread, so a large sweep's id holds
  up only its own client.
* ``service_workers`` slot threads take jobs from
  :meth:`JobManager.next_job`, the only queue of pending jobs, and run
  :func:`~repro.service.executor.execute_job` themselves.  Every thread
  is a daemon, so when the shutdown grace period expires the process
  can exit instead of joining a stuck simulation.
* A slot runs one job at a time and keeps one
  :class:`~repro.parallel.runner.WorkerPool` across its jobs, built at
  the first job that needs it and rebuilt when a job asks for another
  ``workers``.  Concurrent jobs never share processes; a ``workers=1``
  job runs in its slot thread.
* ``service_workers=0`` is a valid degenerate service: jobs queue and
  persist but nothing executes — the tests use it to freeze jobs in the
  ``queued`` state.

Malformed requests: a negative or non-integer ``Content-Length`` and a
body shorter than its length are 400s, a body over
:data:`MAX_BODY_BYTES` is a 413, the stdlib's own rejections (a bad
request line, a header line over 64 KB) are JSON like every other
reply, and a connection that sends nothing for :data:`READ_TIMEOUT_S`
mid-request is closed.

Graceful shutdown (SIGTERM/SIGINT): stop accepting connections and let
the jobs already running finish within ``grace_s`` seconds; a job not
done by then records nothing, so it stays ``queued`` on disk for the
next process (:meth:`JobManager.recover`).  Slot pools close with the
service: an idle pool's workers are joined, and the workers of a job
still running are killed, because interpreter exit would otherwise wait
for their chunks.  A full disk costs a 500 on submission (nothing is
queued) and a log line on a job's outcome; it never stops a slot.
"""

from __future__ import annotations

import functools
import json
import signal
import socketserver
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.parallel.cache import DEFAULT_CACHE_DIR
from repro.parallel.runner import WorkerPool
from repro.service.executor import execute_job
from repro.service.jobs import JobManager, JobStore, QueueFullError
from repro.service.metrics import MetricsRegistry
from repro.service.spec import JobValidationError

#: Refuse request bodies larger than this (a config is a few KB).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Close a connection that sends nothing for this many seconds before
#: its request is complete.
READ_TIMEOUT_S = 30.0

#: Connections the kernel holds until they are accepted.  socketserver's
#: default of 5 is smaller than a burst of concurrent clients, and
#: connections past the backlog are dropped or delayed.
LISTEN_BACKLOG = 128

#: How often the serving thread checks for a shutdown request (the
#: stdlib's 0.5 s would add that much to every stop).
SHUTDOWN_POLL_S = 0.05

#: (status, extra headers, body) of one reply.
Reply = Tuple[int, Dict[str, str], bytes]


def _reply(status: int, payload: Any) -> Reply:
    return status, {}, (json.dumps(payload, indent=2) + "\n").encode()


class _Handler(BaseHTTPRequestHandler):
    """One connection: read one request, route it, write the reply."""

    protocol_version = "HTTP/1.1"
    #: Read as the request's version until its request line parses, so a
    #: reply to a malformed one still has a status line (not HTTP/0.9's).
    default_request_version = "HTTP/1.1"
    timeout = READ_TIMEOUT_S

    def _dispatch(self) -> None:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            reply = _reply(400, {"error": "bad Content-Length"})
        elif length > MAX_BODY_BYTES:
            reply = _reply(413, {"error": "body too large"})
        else:
            body = self.rfile.read(length)
            if len(body) < length:
                reply = _reply(400, {"error": "body shorter than its Content-Length"})
            else:
                try:
                    reply = self.server.service._route(
                        self.command, self.path.split("?", 1)[0], body
                    )
                except Exception as exc:  # noqa: BLE001 - connection isolation
                    reply = _reply(500, {"error": f"internal error: {exc}"})
        self._send(*reply)

    do_GET = do_POST = do_PUT = do_DELETE = do_PATCH = _dispatch

    def _send(self, status: int, headers: Dict[str, str], body: bytes) -> None:
        self.send_response(status)
        headers.setdefault("Content-Type", "application/json")
        headers["Content-Length"] = str(len(body))
        headers["Connection"] = "close"
        for key, value in headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """The stdlib's own rejections (a bad request line, a header line
        over 64 KB, an unknown method) as JSON like every other reply."""
        self._send(*_reply(code, {"error": message or HTTPStatus(code).phrase}))

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:  # the client went away mid-request or mid-reply
            pass

    def log_message(self, format: str, *args: Any) -> None:
        pass


class _Server(ThreadingHTTPServer):
    """Serves one :class:`JobService` (its ``service`` attribute)."""

    #: The process can exit, and server_close() returns, without waiting
    #: for a stalled connection's read timeout.
    daemon_threads = True
    request_queue_size = LISTEN_BACKLOG

    def server_bind(self) -> None:
        # HTTPServer's bind also resolves the host's fully qualified
        # name, a DNS query for a name only CGI handlers read.
        socketserver.TCPServer.server_bind(self)


class JobService:
    """One service instance: manager + store + metrics + HTTP server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8023,
        cache_dir: str = DEFAULT_CACHE_DIR,
        cache: bool = True,
        max_queue: int = 64,
        service_workers: int = 2,
        grace_s: float = 30.0,
        quiet: bool = False,
        job_ttl_s: Optional[float] = None,
    ):
        self.host = host
        self.port = port
        self.cache_root = cache_dir if cache else None
        self.store = JobStore(cache_dir)
        self.manager = JobManager(self.store, max_queue=max_queue, log=self._log)
        self.service_workers = service_workers
        self.grace_s = grace_s
        self.quiet = quiet
        #: Terminal job records older than this are evicted periodically
        #: (record + .result/.trace files); None disables eviction.
        self.job_ttl_s = job_ttl_s
        self.metrics = MetricsRegistry(self.manager, service_workers)
        self._server: Optional[_Server] = None
        #: Set by a signal in run() or by shutdown(); stops the evictor.
        self._stopping = threading.Event()
        #: Guards the slot state below; notified when a slot goes idle.
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._draining = False
        #: Slot -> its pool, and the slots with a job in flight.
        self._pools: Dict[int, WorkerPool] = {}
        self._running: set = set()
        self.bound_port: Optional[int] = None

    def _log(self, message: str) -> None:
        if self.quiet:
            return
        try:  # one write per line: the slots log from their own threads
            print(f"[repro.serve] {message}\n", end="", flush=True)
        except (OSError, ValueError):  # the reader of stdout has gone
            pass

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Bind, recover persisted jobs, and start the server and slot
        threads."""
        resumed = self.manager.recover()
        if resumed:
            self._log(f"resumed {len(resumed)} persisted job(s)")
        self._server = _Server((self.host, self.port), _Handler)
        self._server.service = self
        self.bound_port = self._server.server_address[1]
        threading.Thread(target=self._server.serve_forever, args=(SHUTDOWN_POLL_S,),
                         name="repro-http", daemon=True).start()
        for slot in range(self.service_workers):
            threading.Thread(target=self._slot_loop, args=(slot,),
                             name=f"repro-slot-{slot}", daemon=True).start()
        if self.job_ttl_s is not None:
            threading.Thread(target=self._evict_loop, name="repro-evict",
                             daemon=True).start()
        ttl = f", job_ttl={self.job_ttl_s:.0f}s" if self.job_ttl_s is not None else ""
        self._log(
            f"listening on http://{self.host}:{self.bound_port} "
            f"(workers={self.service_workers}, "
            f"cache={'on' if self.cache_root else 'off'}{ttl})"
        )

    def shutdown(self, grace_s: Optional[float] = None) -> None:
        """Stop serving, let running jobs finish within the grace period,
        close the slot pools; unfinished jobs stay queued on disk."""
        with self._lock:
            if self._draining:
                return
            self._draining = True
        self._stopping.set()
        grace = self.grace_s if grace_s is None else grace_s
        self._log(f"shutting down (grace {grace:.0f}s)")
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        with self._lock:
            self._idle.wait_for(lambda: not self._running, timeout=grace)
        self.manager.close()
        with self._lock:
            stuck = set(self._running)
            pools = list(self._pools.items())
        for slot, pool in pools:
            pool.close(kill=slot in stuck)
        unfinished = sum(self.manager.counts()[s] for s in ("queued", "running"))
        if unfinished:
            self._log(f"{unfinished} unfinished job(s) stay queued for the next run")

    def run(self) -> None:
        """Blocking entry point used by ``python -m repro serve``: serve
        until SIGTERM or SIGINT, then shut down."""
        received = []

        def _signal(signum, frame):
            received.append(signum)
            self._stopping.set()

        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, _signal)
        self.start()
        self._stopping.wait()
        self._log(f"received {signal.Signals(received[0]).name}")
        self.shutdown()

    # -- TTL eviction --------------------------------------------------
    def _evict_loop(self) -> None:
        """Periodically drop terminal job records past their TTL.

        The interval is ttl/2 clamped to [1s, 60s] — frequent enough
        that nothing outlives ~1.5 TTLs, cheap enough to never matter.
        """
        interval = max(1.0, min(self.job_ttl_s / 2.0, 60.0))
        while not self._stopping.wait(interval):
            evicted = self.manager.evict_expired(self.job_ttl_s)
            if evicted:
                self._log(
                    f"evicted {len(evicted)} job record(s) past "
                    f"{self.job_ttl_s:.0f}s TTL"
                )

    # -- job slots -----------------------------------------------------
    def _slot_loop(self, slot: int) -> None:
        while True:
            claimed = self.manager.next_job()
            if claimed is None:
                return
            record, request = claimed
            with self._lock:
                if self._draining:  # its record stays queued for the next run
                    return
                pool = self._slot_pool(slot, request.workers)
                self._running.add(slot)
                self.metrics.busy_workers += 1
            try:
                progress = functools.partial(self.manager.set_progress, record.job_id)
                summary = execute_job(record, request, self.store, self.cache_root,
                                      progress=progress, pool=pool)
            except Exception as exc:  # noqa: BLE001 - job isolation
                error = f"{type(exc).__name__}: {exc}"
                if self.manager.fail(record.job_id, error):
                    self._log(f"job {record.job_id[:12]} failed: {error}")
            else:
                if summary["cache_stats"] is not None:
                    self.manager.fold_cache_stats(summary["cache_stats"])
                if self.manager.finish(record.job_id, summary["digest"]):
                    self.metrics.last_job = summary
                    self._log(
                        f"job {record.job_id[:12]} done "
                        f"({summary['kind']}, {summary['elapsed_s']:.2f}s)"
                    )
            finally:
                with self._lock:
                    self._running.discard(slot)
                    self.metrics.busy_workers -= 1
                    self._idle.notify_all()

    def _slot_pool(self, slot: int, workers: int) -> Optional[WorkerPool]:
        """The slot's pool for a job of ``workers`` (lock held), kept
        across its jobs and rebuilt when a job asks for another size;
        None for a ``workers=1`` job, which runs in the slot thread."""
        if workers <= 1:
            return None
        pool = self._pools.get(slot)
        if pool is None or pool.workers != workers:
            if pool is not None:
                pool.close()
            pool = self._pools[slot] = WorkerPool(workers)
        return pool

    # -- routes --------------------------------------------------------
    def _route(self, method: str, path: str, body: bytes) -> Reply:
        if path.startswith("/jobs/"):
            allowed = "GET"
        else:
            allowed = {"/healthz": "GET", "/metrics": "GET", "/jobs": "POST"}.get(path)
        if allowed is None:
            return _reply(404, {"error": f"no route for {path!r}"})
        if method != allowed:
            return _reply(405, {"error": "method not allowed"})
        if path == "/healthz":
            return _reply(200, {"status": "draining" if self._draining else "ok",
                                "queue_depth": self.manager.queue_depth()})
        if path == "/metrics":
            return (
                200,
                {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
                self.metrics.render().encode("utf-8"),
            )
        if path == "/jobs":
            return self._post_job(body)
        job_id, _, sub = path[len("/jobs/"):].partition("/")
        record = self.manager.get(job_id)
        if record is None:
            return _reply(404, {"error": f"unknown job {job_id!r}"})
        if sub == "":
            return _reply(200, record.status_dict())
        if sub == "result":
            return self._get_result(record)
        if sub == "trace":
            return self._get_trace(record)
        return _reply(404, {"error": f"unknown sub-resource {sub!r}"})

    def _post_job(self, body: bytes) -> Reply:
        if self._draining:
            return _reply(503, {"error": "service is draining"})
        try:
            parsed = json.loads(body.decode("utf-8")) if body else {}
        except ValueError as exc:
            return _reply(400, {"error": f"body is not valid JSON: {exc}"})
        try:
            record, created = self.manager.submit(parsed)
        except JobValidationError as exc:
            return _reply(400, {"error": str(exc), "field": exc.field})
        except QueueFullError as exc:
            return _reply(429, {"error": str(exc)})
        return _reply(201 if created else 200, {**record.status_dict(), "created": created})

    def _get_result(self, record) -> Reply:
        if record.state == "failed":
            return _reply(409, {"error": record.error, "state": "failed"})
        if record.state != "done":
            return _reply(202, {"state": record.state, "progress": record.progress})
        payload = self.store.read_result(record.job_id)
        if payload is None:
            return _reply(500, {"error": "result file missing or corrupt"})
        return _reply(200, payload)

    def _get_trace(self, record) -> Reply:
        if record.state != "done":
            return _reply(
                202 if record.state in ("queued", "running") else 409,
                {"state": record.state, "error": record.error},
            )
        try:
            with open(self.store.trace_path(record.job_id), "rb") as fh:
                return 200, {"Content-Type": "application/json"}, fh.read()
        except FileNotFoundError:
            return _reply(404, {"error": "no trace for this job (submit with "
                                         "simulation.telemetry.enabled=true)"})


class ServiceHandle:
    """A service started in this process, for tests: ``port`` + ``stop()``."""

    def __init__(self, service: JobService):
        self.service = service
        self.port = service.bound_port

    def stop(self, grace_s: float = 10.0) -> None:
        self.service.shutdown(grace_s)


def start_in_thread(**kwargs) -> ServiceHandle:
    """Start a :class:`JobService` on daemon threads; returns once the
    socket is bound.  ``port=0`` picks an ephemeral port (read it off
    the returned handle)."""
    kwargs.setdefault("port", 0)
    kwargs.setdefault("quiet", True)
    service = JobService(**kwargs)
    service.start()
    return ServiceHandle(service)
