"""The backend tier: dedicated servers for caches, KV stores, and databases.

Section 5: "These backend services (Memcached, Redis, and MongoDB) run on
dedicated servers. We do not simulate the execution of the queries on the
backend services. Instead, we use the execution times obtained by profiling
them on a real server."

We go one step further than replaying profiled times: each backend is an
event-driven multi-worker queue, so a correlated burst of blocking calls
congests the backend and inflates I/O times — the feedback loop a fixed
delay cannot express. Per-call service demand is still pre-drawn from the
profiled distributions (so the demand stream is identical across systems);
only the queueing on top depends on load.

A blocking call's end-to-end I/O time is:

    inter-server RT + backend queueing + profiled backend service time
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Tuple

from repro.sim.engine import Simulator

#: Which backend a service's blocking calls hit, by service name. The
#: SocialNet services split across a Memcached tier, a Redis tier, and a
#: MongoDB tier (Figure 1's Cache/Database helpers).
SERVICE_BACKEND: Dict[str, str] = {
    "Text": "memcached",
    "SGraph": "redis",
    "User": "mongodb",
    "PstStr": "mongodb",
    "UsrMnt": "memcached",
    "HomeT": "redis",
    "CPost": "mongodb",
    "UrlShort": "memcached",
}

#: Worker counts per backend server (dedicated machines; sized so the
#: steady state is uncongested and only correlated bursts queue).
DEFAULT_WORKERS: Dict[str, int] = {
    "memcached": 16,
    "redis": 16,
    "mongodb": 24,
}


class BackendService:
    """One backend server: FIFO queue onto ``workers`` parallel workers."""

    def __init__(self, sim: Simulator, name: str, workers: int):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.sim = sim
        self.name = name
        self.workers = workers
        #: Configured worker count; ``workers`` may drop below this during
        #: an injected brownout and is restored from here afterwards.
        self.nominal_workers = workers
        self.busy = 0
        #: (service_demand_ns, callback, enqueue_time_ns)
        self.queue: Deque[Tuple[int, Callable[[], None], int]] = deque()
        self.calls = 0
        self.total_queue_ns = 0
        self.max_queue_depth = 0

    def submit(self, service_demand_ns: int, on_done: Callable[[], None]) -> None:
        """Issue a query with pre-drawn ``service_demand_ns`` of work."""
        self.calls += 1
        if self.busy < self.workers:
            self._start(service_demand_ns, on_done, queued_ns=0)
        else:
            self.queue.append((service_demand_ns, on_done, self.sim.now))
            self.max_queue_depth = max(self.max_queue_depth, len(self.queue))

    def _start(self, demand_ns: int, on_done: Callable[[], None], queued_ns: int) -> None:
        self.busy += 1
        self.total_queue_ns += queued_ns
        self.sim.schedule(max(1, demand_ns), self._finish, on_done)

    def _finish(self, on_done: Callable[[], None]) -> None:
        self.busy -= 1
        # busy can exceed workers right after a brownout cuts capacity;
        # in-flight queries run to completion but no new ones start until
        # occupancy drops below the (reduced) worker count.
        if self.queue and self.busy < self.workers:
            demand, cb, enqueued_at = self.queue.popleft()
            self._start(demand, cb, self.sim.now - enqueued_at)
        on_done()

    def set_capacity(self, workers: int) -> None:
        """Change the effective worker count (brownout fault window).

        Shrinking never aborts in-flight queries; growing immediately
        drains the queue into the newly freed workers."""
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        while self.queue and self.busy < self.workers:
            demand, cb, enqueued_at = self.queue.popleft()
            self._start(demand, cb, self.sim.now - enqueued_at)

    def mean_queue_us(self) -> float:
        if self.calls == 0:
            return 0.0
        return self.total_queue_ns / self.calls / 1000.0


class BackendTier:
    """The cluster's shared backend servers."""

    def __init__(self, sim: Simulator, workers: Dict[str, int] = None):
        sizes = dict(DEFAULT_WORKERS)
        if workers:
            sizes.update(workers)
        self.services: Dict[str, BackendService] = {
            name: BackendService(sim, name, n) for name, n in sizes.items()
        }

    def close(self) -> None:
        """Let go of the simulator and of queued callbacks (run over)."""
        for svc in self.services.values():
            svc.sim = None
            svc.queue.clear()

    def for_service(self, service_name: str) -> BackendService:
        backend = SERVICE_BACKEND.get(service_name)
        if backend is None:
            # Other suites register their routing separately.
            from repro.workloads.suites import HOTEL_BACKENDS

            backend = HOTEL_BACKENDS.get(service_name, "memcached")
        return self.services[backend]

    def stats(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "calls": svc.calls,
                "mean_queue_us": svc.mean_queue_us(),
                "max_queue_depth": svc.max_queue_depth,
            }
            for name, svc in self.services.items()
        }
