"""Cluster-scale resilience: fault plans, health feedback, checkpoints.

Three concerns of a fault-aware datacenter run live here, all built so the
sharding determinism contract survives failures end to end:

**Fault plans.** A :class:`ClusterFaultPlan` schedules faults across the
*cluster* dimension the per-server :class:`~repro.faults.spec.FaultSchedule`
cannot see: which epoch, which server subset, placed at fractions of the
epoch horizon.  The plan expands into ordinary per-server fault schedules
(riding each sweep point's :class:`~repro.config.SimulationConfig`), so
every fault parameter automatically reaches the result-cache key, and the
plan's own serialized form is embedded in the
:class:`~repro.cluster_scale.result.ClusterScaleResult` payload — hence the
run digest.

**Health feedback.** At each epoch barrier the coordinator observes which
servers crashed (``faults_crashes`` counter) and excludes them from the
next epochs' routing until a configurable cool-down expires.  The exclusion
is a pure function of (merged epoch results, plan), so it is bit-identical
at any worker count.

**Checkpoints.** After each barrier the runner persists a digest-stamped
checkpoint (the epoch's full result plus the exact barrier state: harvest
allocation, routing carryover, health cool-downs) under
``<cache>/checkpoints/<run key>/``.  A resumed run restores that state and
continues from the next epoch; because every epoch's randomness is a pure
function of ``(root seed, epoch)``, the resumed run's digest is
bit-identical to an uninterrupted one.  Truncated, corrupt, or
version-mismatched checkpoints are detected by the embedded sha256 stamp
and the loader falls back to the last good epoch (or a cold run) with a
warning — never a wrong-answer resume.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.core import ioutil
from repro.faults.spec import ClientPolicy, FaultKind, FaultSchedule, FaultSpec


# ---------------------------------------------------------------------------
# Cluster-dimension fault scheduling.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterFaultSpec:
    """One cluster-level fault event: which epoch, which servers, and the
    window *as fractions of the epoch horizon* (so the same plan stresses a
    20 ms smoke epoch and a 100 ms paper-scale epoch proportionally).

    ``kind``/``magnitude``/``target``/``target_name`` carry the
    :class:`~repro.faults.spec.FaultSpec` semantics unchanged.
    """

    kind: FaultKind
    epoch: int
    servers: Tuple[int, ...]
    start_frac: float = 0.25
    duration_frac: float = 0.25
    magnitude: float = 1.0
    target: int = -1
    target_name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            raise TypeError(f"kind must be a FaultKind, got {self.kind!r}")
        if self.epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {self.epoch}")
        servers = tuple(int(s) for s in self.servers)
        if not servers:
            raise ValueError("servers must name at least one server index")
        if any(s < 0 for s in servers):
            raise ValueError(f"server indices must be non-negative: {servers}")
        if len(set(servers)) != len(servers):
            raise ValueError(f"duplicate server indices: {servers}")
        object.__setattr__(self, "servers", servers)
        if not 0.0 <= self.start_frac < 1.0:
            raise ValueError(
                f"start_frac must be in [0,1), got {self.start_frac}"
            )
        if self.duration_frac <= 0.0:
            raise ValueError(
                f"duration_frac must be positive, got {self.duration_frac}"
            )
        if self.start_frac + self.duration_frac > 1.0:
            raise ValueError(
                "fault window must fit inside the epoch: start_frac + "
                f"duration_frac = {self.start_frac + self.duration_frac} > 1"
            )

    def expand(self, epoch_ms: float) -> FaultSpec:
        """The per-server fault event this becomes at a given epoch length.

        Validation (magnitude ranges per kind) happens in
        :class:`FaultSpec`, so a bad plan fails at construction of the
        epoch's points, not silently mid-run.
        """
        return FaultSpec(
            kind=self.kind,
            start_ms=epoch_ms * self.start_frac,
            duration_ms=max(epoch_ms * self.duration_frac, 1e-3),
            magnitude=self.magnitude,
            target=self.target,
            target_name=self.target_name,
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "epoch": self.epoch,
            "servers": list(self.servers),
            "start_frac": self.start_frac,
            "duration_frac": self.duration_frac,
            "magnitude": self.magnitude,
            "target": self.target,
            "target_name": self.target_name,
        }

    @staticmethod
    def from_dict(data: dict) -> "ClusterFaultSpec":
        return ClusterFaultSpec(
            kind=FaultKind(data["kind"]),
            epoch=data["epoch"],
            servers=tuple(data["servers"]),
            start_frac=data["start_frac"],
            duration_frac=data["duration_frac"],
            magnitude=data["magnitude"],
            target=data["target"],
            target_name=data["target_name"],
        )


@dataclass(frozen=True)
class ClusterFaultPlan:
    """A frozen per-epoch fault schedule over server subsets, plus the
    health-feedback knobs the routing layer consumes.

    ``client`` is applied to *every* server of a fault-plan run (not only
    the faulted ones) so retry/hedging/goodput accounting is uniform
    across the cluster.  ``cooldown_epochs`` is how many epochs a crashed
    server stays excluded from routing after the epoch in which it
    crashed (0 = crashes never steer routing).
    """

    events: Tuple[ClusterFaultSpec, ...] = ()
    client: Optional[ClientPolicy] = None
    cooldown_epochs: int = 1

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for ev in events:
            if not isinstance(ev, ClusterFaultSpec):
                raise TypeError(f"events must be ClusterFaultSpec, got {ev!r}")
        object.__setattr__(self, "events", events)
        if self.client is not None and not isinstance(self.client, ClientPolicy):
            raise TypeError(f"client must be a ClientPolicy, got {self.client!r}")
        if self.cooldown_epochs < 0:
            raise ValueError(
                f"cooldown_epochs must be >= 0, got {self.cooldown_epochs}"
            )

    def __len__(self) -> int:
        return len(self.events)

    def events_for(self, epoch: int, server: int) -> Tuple[ClusterFaultSpec, ...]:
        """The plan events hitting ``server`` during ``epoch``, in plan order."""
        return tuple(
            ev for ev in self.events
            if ev.epoch == epoch and server in ev.servers
        )

    def schedule_for(
        self, epoch: int, server: int, epoch_ms: float
    ) -> Optional[FaultSchedule]:
        """Expand this plan into one server-epoch's fault schedule
        (None when the plan leaves that server-epoch untouched)."""
        events = self.events_for(epoch, server)
        if not events:
            return None
        return FaultSchedule(
            events=tuple(ev.expand(epoch_ms) for ev in events)
        )

    def describe(self) -> str:
        """One line per event, for CLI banners and logs."""
        lines = []
        for i, ev in enumerate(self.events):
            servers = ",".join(str(s) for s in ev.servers)
            lines.append(
                f"  [{i}] epoch {ev.epoch}: {ev.kind.value:16s} "
                f"servers [{servers}] window "
                f"{ev.start_frac:.0%}+{ev.duration_frac:.0%} "
                f"magnitude={ev.magnitude:g}"
            )
        return "\n".join(lines) if lines else "  (no faults)"

    def to_dict(self) -> dict:
        return {
            "events": [ev.to_dict() for ev in self.events],
            "client": (
                dataclasses.asdict(self.client)
                if self.client is not None
                else None
            ),
            "cooldown_epochs": self.cooldown_epochs,
        }

    @staticmethod
    def from_dict(data: dict) -> "ClusterFaultPlan":
        return ClusterFaultPlan(
            events=tuple(
                ClusterFaultSpec.from_dict(ev) for ev in data["events"]
            ),
            client=(
                ClientPolicy(**data["client"])
                if data.get("client") is not None
                else None
            ),
            cooldown_epochs=data.get("cooldown_epochs", 1),
        )


# ---------------------------------------------------------------------------
# Canned cluster plans (``--fault-plan <name>``).
# ---------------------------------------------------------------------------
def _spread(servers: int, epoch: int, count: int) -> Tuple[int, ...]:
    """A deterministic, epoch-rotating subset of ``count`` servers."""
    count = max(1, min(count, servers))
    return tuple(sorted((epoch * count + i) % servers for i in range(count)))


def _plan_crash_storm(servers: int, epochs: int) -> ClusterFaultPlan:
    """Every epoch, a rotating quarter of the cluster suffers a transient
    full-server crash; clients retry and routing steers around the
    casualties for one cool-down epoch."""
    events = [
        ClusterFaultSpec(
            kind=FaultKind.SERVER_CRASH,
            epoch=epoch,
            servers=_spread(servers, epoch, max(1, servers // 4)),
            start_frac=0.3,
            duration_frac=0.15,
        )
        for epoch in range(epochs)
    ]
    return ClusterFaultPlan(
        events=tuple(events),
        client=ClientPolicy(
            timeout_ms=25.0, max_retries=4, backoff_base_ms=4.0,
            retry_budget=2.0,
        ),
        cooldown_epochs=1,
    )


def _plan_brownout_wave(servers: int, epochs: int) -> ClusterFaultPlan:
    """A backend brownout rolls across the cluster: each epoch a different
    half of the servers sees its database tier at 25% capacity."""
    events = [
        ClusterFaultSpec(
            kind=FaultKind.BACKEND_BROWNOUT,
            epoch=epoch,
            servers=_spread(servers, epoch, max(1, servers // 2)),
            start_frac=0.25,
            duration_frac=0.5,
            magnitude=0.25,
            target_name="mongodb",
        )
        for epoch in range(epochs)
    ]
    return ClusterFaultPlan(
        events=tuple(events),
        client=ClientPolicy(
            timeout_ms=30.0, max_retries=3, retry_budget=1.0,
            admission_queue_depth=48,
        ),
        cooldown_epochs=0,
    )


def _plan_slow_core_epidemic(servers: int, epochs: int) -> ClusterFaultPlan:
    """Thermal throttling spreads: the share of servers running their
    Primary cores 3x slower grows every epoch until the whole cluster is
    affected."""
    events = []
    for epoch in range(epochs):
        infected = max(1, (servers * (epoch + 1)) // max(1, epochs))
        events.append(
            ClusterFaultSpec(
                kind=FaultKind.CORE_SLOWDOWN,
                epoch=epoch,
                servers=tuple(range(infected)),
                start_frac=0.2,
                duration_frac=0.6,
                magnitude=3.0,
            )
        )
    return ClusterFaultPlan(
        events=tuple(events),
        client=ClientPolicy(timeout_ms=40.0, max_retries=2, retry_budget=0.5),
        cooldown_epochs=0,
    )


CLUSTER_PLANS: Dict[str, Callable[[int, int], ClusterFaultPlan]] = {
    "crash-storm": _plan_crash_storm,
    "brownout-wave": _plan_brownout_wave,
    "slow-core-epidemic": _plan_slow_core_epidemic,
}


def cluster_plan_names() -> List[str]:
    return sorted(CLUSTER_PLANS)


def get_cluster_plan(name: str, servers: int, epochs: int) -> ClusterFaultPlan:
    """Expand a canned cluster plan for a given cluster shape.

    Raises KeyError with the list of known names on an unknown plan.
    """
    builder = CLUSTER_PLANS.get(name)
    if builder is None:
        raise KeyError(
            f"unknown cluster fault plan {name!r}; choose from "
            f"{cluster_plan_names()}"
        )
    if servers <= 0 or epochs <= 0:
        raise ValueError("servers and epochs must be positive")
    return builder(servers, epochs)


# ---------------------------------------------------------------------------
# Epoch-barrier health feedback.
# ---------------------------------------------------------------------------
class HealthTracker:
    """Per-server routing eligibility driven by observed crashes.

    A server that crashed during epoch ``e`` is excluded from routing for
    the next ``cooldown_epochs`` epochs, then re-admitted.  All state is
    derived from merged epoch results at barriers, so it is independent of
    worker count, and it round-trips through checkpoints exactly (the
    cool-down vector is integer state).
    """

    def __init__(self, servers: int, cooldown_epochs: int,
                 cooldown: Optional[Sequence[int]] = None):
        if cooldown is not None and len(cooldown) != servers:
            raise ValueError(
                f"cooldown vector has {len(cooldown)} entries for "
                f"{servers} servers"
            )
        self.servers = servers
        self.cooldown_epochs = cooldown_epochs
        self.cooldown: List[int] = (
            [int(c) for c in cooldown] if cooldown is not None
            else [0] * servers
        )

    def eligible(self) -> List[bool]:
        """Routing eligibility for the *next* epoch.  If every server is
        cooling down, all are re-admitted (routing somewhere beats
        routing nowhere)."""
        mask = [c == 0 for c in self.cooldown]
        if not any(mask):
            return [True] * self.servers
        return mask

    def excluded(self) -> List[int]:
        mask = self.eligible()
        return [i for i in range(self.servers) if not mask[i]]

    def barrier(self, crashed: Sequence[bool]) -> dict:
        """Fold one epoch's observed crashes into the cool-down state.

        Servers that sat out this epoch tick down first; servers observed
        crashing (re)start their cool-down.  Returns the epoch's health
        record for :class:`~repro.cluster_scale.result.EpochResult`.
        """
        if len(crashed) != self.servers:
            raise ValueError(
                f"crashed vector has {len(crashed)} entries for "
                f"{self.servers} servers"
            )
        excluded_now = [i for i, c in enumerate(self.cooldown) if c > 0]
        for i in range(self.servers):
            if self.cooldown[i] > 0:
                self.cooldown[i] -= 1
            if crashed[i]:
                self.cooldown[i] = self.cooldown_epochs
        return {
            "crashed": [i for i, flag in enumerate(crashed) if flag],
            "excluded": excluded_now,
            "cooldown": list(self.cooldown),
        }


# ---------------------------------------------------------------------------
# Degradation aggregation (the PR-3 metrics, reduced per epoch).
# ---------------------------------------------------------------------------
#: Per-server resilience counters that sum across a cluster.
_SUM_KEYS = (
    "offered", "completed", "completed_in_slo", "failed", "attempts",
    "retries", "hedges", "shed", "timeouts",
)


def aggregate_resilience(server_results: Sequence) -> Dict[str, float]:
    """Reduce per-server ``resilience`` dicts into one epoch-level record.

    Counters sum; rates are recomputed from the summed counters (never
    averaged); time-to-recovery takes the cluster-wide worst case.  Works
    for both the client-runtime summary and the injector-only summary
    (which lacks SLO accounting — there ``completed`` stands in for
    ``completed_in_slo``).  Empty when no server carries resilience data.
    """
    totals = {key: 0.0 for key in _SUM_KEYS}
    recovery_max = 0.0
    populated = False
    for server in server_results:
        res = getattr(server, "resilience", None) or {}
        if not res:
            continue
        populated = True
        for key in _SUM_KEYS:
            totals[key] += res.get(key, 0.0)
        if "completed_in_slo" not in res:
            totals["completed_in_slo"] += res.get("completed", 0.0)
        if "attempts" not in res:
            totals["attempts"] += res.get("completed", 0.0)
        recovery_max = max(recovery_max, res.get("recovery_ms_max", 0.0))
    if not populated:
        return {}
    offered = max(1.0, totals["offered"])
    out = dict(totals)
    out["goodput"] = totals["completed_in_slo"] / offered
    out["retry_amplification"] = totals["attempts"] / offered
    out["slo_violation_rate"] = 1.0 - out["goodput"]
    out["recovery_ms_max"] = recovery_max
    return out


# ---------------------------------------------------------------------------
# Epoch checkpoint/resume.
# ---------------------------------------------------------------------------
#: Bumped whenever the checkpoint payload shape changes; a mismatch makes
#: the loader fall back to a cold run instead of guessing.
CHECKPOINT_FORMAT = 1

#: Subdirectory of the result-cache root where checkpoints live.
CHECKPOINT_SUBDIR = "checkpoints"


def cluster_run_key(system, sim, cfg, batch_jobs) -> str:
    """Content address of one cluster-scale run configuration.

    Everything that determines the run's output participates — the full
    serialized system and simulation configs, the cluster-scale config
    (fault plan included), the batch-job roster, and the package version —
    so a checkpoint can never be resumed into a different experiment.
    """
    from repro.core.serialize import to_dict

    payload = {
        "system": to_dict(system),
        "simulation": to_dict(sim),
        "cluster_scale": cfg.to_dict(),
        "batch_jobs": [dataclasses.asdict(job) for job in batch_jobs],
        "version": repro.__version__,
    }
    digest = hashlib.sha256(ioutil.canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass
class CheckpointStore:
    """Digest-stamped per-epoch checkpoints for one cluster-scale run.

    One stamped record (:func:`repro.core.ioutil.write_record`) per
    completed epoch under ``<root>/<run_key>/``, written at the epoch
    barrier: the epoch's full serialized result and the exact
    post-barrier state (harvest allocation, routing carryover, health
    cool-downs).  :meth:`load` replays the longest valid consecutive
    prefix; the first missing/corrupt/mismatched file ends the replay
    with a warning — a damaged checkpoint can downgrade a resume to a
    (correct) colder start, never corrupt its results.
    """

    root: str
    run_key: str
    version: str = field(default_factory=lambda: repro.__version__)
    #: Warning sink (e.g. the runner's ``progress`` callable).
    warn: Optional[Callable[[str], None]] = None
    #: Saves the runner skipped on an ``OSError`` (a full disk, say): the
    #: run keeps its results, and a resume recomputes from the gap.
    save_failures: int = 0

    @property
    def run_dir(self) -> str:
        return os.path.join(self.root, self.run_key)

    def path(self, epoch: int) -> str:
        return os.path.join(self.run_dir, f"epoch_{epoch:04d}.json")

    def _warn(self, message: str) -> None:
        if self.warn is not None:
            self.warn(f"checkpoint: {message}")

    def save(self, epoch: int, epoch_result: dict, state: dict) -> str:
        """Persist one epoch's result + barrier state; returns the path."""
        path = self.path(epoch)
        ioutil.write_record(path, {
            "format": CHECKPOINT_FORMAT,
            "version": self.version,
            "run_key": self.run_key,
            "epoch": epoch,
            "epoch_result": epoch_result,
            "state": state,
        })
        return path

    def load_epoch(self, epoch: int) -> Optional[dict]:
        """One validated checkpoint entry, or None (with a warning on
        anything other than a clean miss)."""
        path = self.path(epoch)
        try:
            entry = ioutil.read_record(path)
        except ioutil.RecordError as exc:
            self._warn(f"{path} {exc}; ignoring it")
            return None
        if entry is None:
            return None
        for key, expected in (("format", CHECKPOINT_FORMAT),
                              ("version", self.version),
                              ("run_key", self.run_key), ("epoch", epoch)):
            if entry.get(key) != expected:
                self._warn(f"{path} has {key} {entry.get(key)!r}, expected "
                           f"{expected!r}; ignoring it")
                return None
        return entry

    def load(self, max_epochs: int) -> Tuple[List[dict], Optional[dict]]:
        """The longest valid consecutive prefix of checkpoints.

        Returns ``(entries, state)`` where ``entries`` are the validated
        checkpoint dicts for epochs ``0..len(entries)-1`` and ``state`` is
        the barrier state to resume from (None when nothing was restored).
        """
        entries: List[dict] = []
        for epoch in range(max_epochs):
            entry = self.load_epoch(epoch)
            if entry is None:
                break
            entries.append(entry)
        state = entries[-1]["state"] if entries else None
        return entries, state
