"""Main-memory model.

The paper uses DRAMSim2; here a fixed-latency model with a light
bandwidth-pressure term stands in. Each access costs ``access_ns`` plus a
queueing penalty that grows once the recent access rate approaches the
configured bandwidth (keeping memory-intensive batch jobs, e.g. RndFTrain in
Figure 17, from enjoying free unlimited bandwidth).
"""

from __future__ import annotations

from repro.config import MemoryConfig


class DramModel:
    """Latency/bandwidth main-memory model shared by one server."""

    LINE_BYTES = 64

    def __init__(self, config: MemoryConfig):
        self.config = config
        self.accesses = 0
        # Exponentially-averaged inter-access gap (ns) used as a pressure
        # signal; starts relaxed.
        self._avg_gap_ns = 1000.0
        self._last_access_ns = 0

    def access_latency(self, now_ns: int) -> int:
        """Latency (ns) of one line fill issued at ``now_ns``."""
        return self.burst_latency(now_ns, 1)

    def burst_latency(self, now_ns: int, count: int) -> int:
        """Summed latency (ns) of ``count`` line fills issued one after
        another at ``now_ns``: the same as ``count`` calls of
        :meth:`access_latency`, with the model's state kept in locals."""
        access_ns = self.config.access_ns
        # Gap that saturates the configured bandwidth for 64B lines.
        saturation_gap = self.LINE_BYTES / self.config.bandwidth_gbps  # ns
        avg = self._avg_gap_ns
        gap = max(0, now_ns - self._last_access_ns)
        total = 0
        for _ in range(count):
            avg = 0.99 * avg + 0.01 * gap
            gap = 0
            if avg < saturation_gap:
                # Pressure: queueing inflates latency up to 3x at full saturation.
                pressure = min(1.0, saturation_gap / max(avg, 1e-9) - 1.0)
                total += int(access_ns * (1.0 + 2.0 * pressure))
            else:
                total += access_ns
        self.accesses += count
        self._avg_gap_ns = avg
        self._last_access_ns = now_ns
        return total
