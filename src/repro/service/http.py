"""The asyncio HTTP front end: routing, worker pool, graceful shutdown.

Stdlib only — a deliberately small HTTP/1.1 server over
:func:`asyncio.start_server` (request line + headers + Content-Length
body, ``Connection: close``), because the service's API surface is six
routes and a framework dependency would break the no-new-hard-deps rule.

Concurrency model
-----------------

* The event loop owns sockets and routing; it never simulates.  A
  submission is parsed and hashed into its job id on an executor
  thread, so a large sweep's id does not stall ``/healthz`` or polls.
* ``service_workers`` asyncio tasks (slots) drain an
  :class:`asyncio.Queue` of job ids.  Each claimed job runs
  :func:`~repro.service.executor.execute_job` on a *daemon* thread,
  signalled back to the loop with an :class:`asyncio.Event` — daemon
  threads (rather than a ThreadPoolExecutor) so that when the shutdown
  grace period expires the process can actually exit instead of joining
  a stuck simulation.
* A slot runs one job at a time and keeps one
  :class:`~repro.parallel.runner.WorkerPool` across its jobs, built at
  the first job that needs it and rebuilt when a job asks for another
  ``workers``.  Concurrent jobs never share processes; a ``workers=1``
  job runs in its thread.
* ``service_workers=0`` is a valid degenerate service: jobs queue and
  persist but nothing executes — the tests use it to freeze jobs in the
  ``queued`` state.

Graceful shutdown (SIGTERM/SIGINT): stop accepting new submissions
(503), let in-flight jobs finish within ``grace_s`` seconds, then mark
everything unfinished ``queued`` on disk so the next process resumes it
(:meth:`JobManager.requeue_unfinished` / :meth:`JobManager.recover`).
Slot pools close with the service: an idle pool's workers are joined,
and the workers of a job still running are killed, because interpreter
exit would otherwise wait for their chunks.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from typing import Any, Dict, Optional, Tuple

from repro.parallel.cache import DEFAULT_CACHE_DIR
from repro.parallel.runner import WorkerPool
from repro.service.executor import execute_job
from repro.service.jobs import JobManager, JobStore, QueueFullError
from repro.service.metrics import MetricsRegistry
from repro.service.spec import JobValidationError

#: Refuse request bodies larger than this (a config is a few KB).
MAX_BODY_BYTES = 4 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK", 201: "Created", 202: "Accepted", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class JobService:
    """One service instance: manager + store + metrics + asyncio server."""

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
        self.manager = JobManager(self.store, max_queue=max_queue)
        self.service_workers = service_workers
        self.grace_s = grace_s
        self.quiet = quiet
        #: Terminal job records older than this are evicted periodically
        #: (record + .result/.trace files); None disables eviction.
        self.job_ttl_s = job_ttl_s
        self.metrics = MetricsRegistry(self.manager, service_workers)
        self._queue: "asyncio.Queue[str]" = asyncio.Queue()
        self._draining = False
        self._stopped = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._worker_tasks: list = []
        #: Slot -> its pool, and the slots with a job in flight.
        self._pools: Dict[int, WorkerPool] = {}
        self._running: set = set()
        self.bound_port: Optional[int] = None

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"[repro.serve] {message}", flush=True)

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Bind, recover persisted jobs, and launch the worker pool."""
        resumed = self.manager.recover()
        for job_id in resumed:
            self._queue.put_nowait(job_id)
        if resumed:
            self._log(f"resumed {len(resumed)} persisted job(s)")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        self._worker_tasks = [
            asyncio.ensure_future(self._worker_loop(i))
            for i in range(self.service_workers)
        ]
        if self.job_ttl_s is not None:
            # Rides in _worker_tasks so shutdown's cancel sweep stops it.
            self._worker_tasks.append(
                asyncio.ensure_future(self._evict_loop())
            )
        self._log(
            f"listening on http://{self.host}:{self.bound_port} "
            f"(workers={self.service_workers}, "
            f"cache={'on' if self.cache_root else 'off'}"
            + (
                f", job_ttl={self.job_ttl_s:.0f}s"
                if self.job_ttl_s is not None
                else ""
            )
            + ")"
        )

    async def shutdown(self, grace_s: Optional[float] = None) -> None:
        """Drain in-flight jobs, requeue the rest, release the socket."""
        if self._draining:
            return
        self._draining = True
        grace = self.grace_s if grace_s is None else grace_s
        self._log(f"shutting down (grace {grace:.0f}s)")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = asyncio.get_event_loop().time() + grace
        while (
            self.metrics.busy_workers > 0
            and asyncio.get_event_loop().time() < deadline
        ):
            await asyncio.sleep(0.05)
        stuck = set(self._running)
        for task in self._worker_tasks:
            task.cancel()
        for task in self._worker_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for slot, pool in self._pools.items():
            pool.close(kill=slot in stuck)
        requeued = self.manager.requeue_unfinished()
        if requeued:
            self._log(
                f"requeued {len(requeued)} unfinished job(s) for the next run"
            )
        self._stopped.set()

    async def serve_forever(self) -> None:
        await self._stopped.wait()

    def run(self) -> None:
        """Blocking entry point used by ``python -m repro serve``."""
        loop = asyncio.new_event_loop()
        try:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.start())

            def _signal(signum):
                self._log(f"received {signal.Signals(signum).name}")
                asyncio.ensure_future(self.shutdown())

            try:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    loop.add_signal_handler(signum, _signal, signum)
            except NotImplementedError:  # non-Unix event loops
                for signum in (signal.SIGTERM, signal.SIGINT):
                    signal.signal(
                        signum,
                        lambda s, f: loop.call_soon_threadsafe(_signal, s),
                    )
            loop.run_until_complete(self.serve_forever())
        finally:
            loop.close()

    # -- TTL eviction --------------------------------------------------
    async def _evict_loop(self) -> None:
        """Periodically drop terminal job records past their TTL.

        The interval is ttl/2 clamped to [1s, 60s] — frequent enough
        that nothing outlives ~1.5 TTLs, cheap enough to never matter.
        """
        interval = max(1.0, min(self.job_ttl_s / 2.0, 60.0))
        while True:
            await asyncio.sleep(interval)
            evicted = self.manager.evict_expired(self.job_ttl_s)
            if evicted:
                self._log(
                    f"evicted {len(evicted)} job record(s) past "
                    f"{self.job_ttl_s:.0f}s TTL"
                )

    # -- worker pool ---------------------------------------------------
    async def _worker_loop(self, slot: int) -> None:
        loop = asyncio.get_event_loop()
        while True:
            job_id = await self._queue.get()
            self.manager.pop_pending()
            claimed = self.manager.claim(job_id)
            if claimed is None:
                continue
            record, request = claimed
            pool = await self._slot_pool(slot, request.workers)
            self.metrics.busy_workers += 1
            self._running.add(slot)
            done = asyncio.Event()
            outcome: Dict[str, Any] = {}

            def _run(record=record, request=request, outcome=outcome,
                     done=done, pool=pool):
                try:
                    outcome["summary"] = execute_job(
                        record,
                        request,
                        self.store,
                        self.cache_root,
                        progress=lambda m: self.manager.set_progress(
                            record.job_id, m
                        ),
                        pool=pool,
                    )
                except BaseException as exc:  # noqa: BLE001 - job isolation
                    outcome["error"] = f"{type(exc).__name__}: {exc}"
                finally:
                    try:
                        loop.call_soon_threadsafe(done.set)
                    except RuntimeError:  # the job outlived the service
                        pass

            thread = threading.Thread(
                target=_run, name=f"repro-job-{slot}", daemon=True
            )
            thread.start()
            try:
                await done.wait()
            finally:
                self.metrics.busy_workers -= 1
                self._running.discard(slot)
            if "summary" in outcome:
                summary = outcome["summary"]
                if summary["cache_stats"] is not None:
                    self.manager.fold_cache_stats(summary["cache_stats"])
                self.manager.finish(record.job_id, summary["digest"])
                self.metrics.last_job = summary
                self._log(
                    f"job {record.job_id[:12]} done "
                    f"({summary['kind']}, {summary['elapsed_s']:.2f}s)"
                )
            else:
                self.manager.fail(record.job_id, outcome["error"])
                self._log(f"job {record.job_id[:12]} failed: {outcome['error']}")

    async def _slot_pool(self, slot: int, workers: int) -> Optional[WorkerPool]:
        """The slot's pool for a job of ``workers``, kept across its jobs
        and rebuilt when a job asks for another size; None for a
        ``workers=1`` job, which runs in its thread."""
        if workers <= 1:
            return None
        pool = self._pools.get(slot)
        if pool is None or pool.workers != workers:
            if pool is not None:  # joining its idle workers can take a while
                await asyncio.get_running_loop().run_in_executor(None, pool.close)
            pool = self._pools[slot] = WorkerPool(workers)
        return pool

    # -- HTTP plumbing -------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            status, headers, body = await self._handle_request(reader)
        except Exception as exc:  # noqa: BLE001 - connection isolation
            status = 500
            headers = {"Content-Type": "application/json"}
            body = json.dumps({"error": f"internal error: {exc}"}).encode()
        try:
            head = (
                f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            )
            headers.setdefault("Content-Type", "application/json")
            headers["Content-Length"] = str(len(body))
            headers["Connection"] = "close"
            for key, value in headers.items():
                head += f"{key}: {value}\r\n"
            writer.write(head.encode("latin-1") + b"\r\n" + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _handle_request(
        self, reader
    ) -> Tuple[int, Dict[str, str], bytes]:
        request_line = await reader.readline()
        if not request_line:
            return 400, {}, b'{"error": "empty request"}'
        try:
            method, target, _ = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            return 400, {}, b'{"error": "malformed request line"}'
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {}, b'{"error": "bad Content-Length"}'
        if content_length > MAX_BODY_BYTES:
            return 413, {}, b'{"error": "body too large"}'
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        return await self._route(method, target.split("?", 1)[0], body)

    # -- routes --------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        def reply(status: int, payload: Any) -> Tuple[int, Dict[str, str], bytes]:
            return status, {}, (json.dumps(payload, indent=2) + "\n").encode()

        if path == "/healthz":
            if method != "GET":
                return reply(405, {"error": "method not allowed"})
            return reply(
                200,
                {
                    "status": "draining" if self._draining else "ok",
                    "queue_depth": self.manager.queue_depth(),
                },
            )
        if path == "/metrics":
            if method != "GET":
                return reply(405, {"error": "method not allowed"})
            return (
                200,
                {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
                self.metrics.render().encode("utf-8"),
            )
        if path == "/jobs":
            if method != "POST":
                return reply(405, {"error": "method not allowed"})
            return await self._post_job(body, reply)
        if path.startswith("/jobs/"):
            if method != "GET":
                return reply(405, {"error": "method not allowed"})
            rest = path[len("/jobs/"):]
            job_id, _, sub = rest.partition("/")
            record = self.manager.get(job_id)
            if record is None:
                return reply(404, {"error": f"unknown job {job_id!r}"})
            if sub == "":
                return reply(200, record.status_dict())
            if sub == "result":
                return self._get_result(record, reply)
            if sub == "trace":
                return self._get_trace(record, reply)
            return reply(404, {"error": f"unknown sub-resource {sub!r}"})
        return reply(404, {"error": f"no route for {path!r}"})

    async def _post_job(self, body: bytes, reply):
        if self._draining:
            return reply(503, {"error": "service is draining"})
        try:
            parsed = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as exc:
            return reply(400, {"error": f"body is not valid JSON: {exc}"})
        try:
            # A 4,096-point sweep's job id hashes for most of a second:
            # off the loop, so every other request keeps being served.
            record, created = await asyncio.get_running_loop().run_in_executor(
                None, self.manager.submit, parsed
            )
        except JobValidationError as exc:
            return reply(400, {"error": str(exc), "field": exc.field})
        except QueueFullError as exc:
            return reply(429, {"error": str(exc)})
        if created:
            self._queue.put_nowait(record.job_id)
        return reply(
            201 if created else 200,
            {**record.status_dict(), "created": created},
        )

    def _get_result(self, record, reply):
        if record.state == "failed":
            return reply(409, {"error": record.error, "state": "failed"})
        if record.state != "done":
            return reply(
                202, {"state": record.state, "progress": record.progress}
            )
        payload = self.store.read_result(record.job_id)
        if payload is None:
            return reply(
                500, {"error": "result file missing or corrupt"}
            )
        return reply(200, payload)

    def _get_trace(self, record, reply):
        import os

        if record.state != "done":
            return reply(
                202 if record.state in ("queued", "running") else 409,
                {"state": record.state, "error": record.error},
            )
        path = self.store.trace_path(record.job_id)
        if not os.path.exists(path):
            return reply(
                404,
                {
                    "error": "no trace for this job "
                             "(submit with simulation.telemetry.enabled=true)"
                },
            )
        with open(path, "rb") as fh:
            return 200, {"Content-Type": "application/json"}, fh.read()


class ServiceHandle:
    """A started-in-thread service, for tests: ``port`` + ``stop()``."""

    def __init__(self, service: JobService, loop, thread):
        self.service = service
        self.port = service.bound_port
        self._loop = loop
        self._thread = thread

    def stop(self, grace_s: float = 10.0) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(grace_s), self._loop
        )
        future.result(timeout=grace_s + 30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()


def start_in_thread(**kwargs) -> ServiceHandle:
    """Start a :class:`JobService` on a daemon thread; returns once the
    socket is bound.  ``port=0`` picks an ephemeral port (read it off
    the returned handle)."""
    kwargs.setdefault("port", 0)
    kwargs.setdefault("quiet", True)
    loop = asyncio.new_event_loop()
    service = JobService(**kwargs)
    started = threading.Event()

    def _run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(service.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("service failed to start within 30s")
    return ServiceHandle(service, loop, thread)
