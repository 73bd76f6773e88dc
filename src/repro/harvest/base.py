"""Harvesting agents: who decides when a Primary VM core is lent.

Three agents mirror the paper's three worlds:

* :class:`NoHarvestAgent` — cores are never lent (the NoHarvest baseline).
* :class:`~repro.harvest.software.SmartHarvestAgent` — a user-space
  monitoring agent that wakes periodically, predicts near-future load, and
  lends only sustained-idle cores while keeping an emergency buffer
  (SmartHarvest [88], Section 2.2).
* :class:`~repro.harvest.hardware.HardwareAgent` — the HardHarvest QMs:
  a core that finds its own subqueue empty is lent *immediately*
  (Section 4.1.4); there is no buffer and no prediction because reclamation
  is cheap enough not to need them.

Reclamation is demand-driven in every system (the engine reclaims when a
Primary VM has ready work and no idle core); agents only control lending.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import HarvestTrigger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cluster.core import Core
    from repro.cluster.server import ServerSimulation


class HarvestAgent:
    """Interface: lending decisions for one server."""

    name = "base"

    def __init__(self, trigger: HarvestTrigger):
        self.trigger = trigger
        self.engine: "ServerSimulation" = None  # set by attach()

    def attach(self, engine: "ServerSimulation") -> None:
        self.engine = engine

    def start(self) -> None:
        """Called once when the simulation starts (e.g. to begin ticking)."""

    def cause_allowed(self, cause: str) -> bool:
        """Is a core that went idle for ``cause`` ('term'/'block') lendable?"""
        if self.trigger is HarvestTrigger.NEVER:
            return False
        if cause == "term":
            return True
        return self.trigger is HarvestTrigger.ON_BLOCK

    def on_core_idle(self, core: "Core", cause: str) -> bool:
        """Return True to lend ``core`` to the Harvest VM right now."""
        raise NotImplementedError

    def observe_block(self, vm_id: int, duration_ns: int) -> None:
        """A request of ``vm_id`` blocked for ``duration_ns`` (network RT
        plus backend demand); called by the engine on every blocking call."""


class NoHarvestAgent(HarvestAgent):
    """Never lends: the conventional system."""

    name = "noharvest"

    def __init__(self) -> None:
        super().__init__(HarvestTrigger.NEVER)

    def on_core_idle(self, core: "Core", cause: str) -> bool:
        return False
