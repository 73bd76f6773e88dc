"""Adaptive harvesting trigger (the paper's Section 4.1.5 future work).

    "the system could monitor events such as when requests spend a very
    short time blocked on I/O. In this case, the system could dynamically
    switch from harvesting on blocking call to harvesting only on request
    completion."

:class:`AdaptiveAgent` implements exactly that policy on top of the
hardware agent: it tracks an EWMA of observed blocking durations per
Primary VM and lends block-idled cores only when the typical block is long
enough to amortize a lend/reclaim round trip. Termination-idled cores are
always lendable (reassignment is nearly free in hardware).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.config import HarvestTrigger
from repro.harvest.hardware import HardwareAgent
from repro.sim.units import US

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.core import Core


class AdaptiveAgent(HardwareAgent):
    """HardHarvest agent that adapts its trigger to observed I/O behaviour."""

    name = "hardharvest-adaptive"

    def __init__(
        self,
        min_worthwhile_block_ns: int = 50 * US,
        ewma_alpha: float = 0.2,
    ):
        super().__init__(HarvestTrigger.ON_BLOCK)
        if min_worthwhile_block_ns < 0:
            raise ValueError("min_worthwhile_block_ns must be non-negative")
        self.min_worthwhile_block_ns = min_worthwhile_block_ns
        self.ewma_alpha = ewma_alpha
        #: Per-VM EWMA of observed blocking durations (ns).
        self._block_ewma: Dict[int, float] = {}
        self.block_lends_suppressed = 0

    # ------------------------------------------------------------------
    def observe_block(self, vm_id: int, duration_ns: int) -> None:
        """Feed an observed blocking duration (called by the engine)."""
        prev = self._block_ewma.get(vm_id, float(duration_ns))
        self._block_ewma[vm_id] = (
            self.ewma_alpha * duration_ns + (1 - self.ewma_alpha) * prev
        )

    def typical_block_ns(self, vm_id: int) -> float:
        return self._block_ewma.get(vm_id, float("inf"))

    # ------------------------------------------------------------------
    def on_core_idle(self, core: "Core", cause: str) -> bool:
        if cause == "term":
            return True
        # Block-idled: lend only when the VM's blocks are typically long
        # enough that the harvest window is worth a lend/reclaim cycle.
        if self.typical_block_ns(core.owner_vm_id) < self.min_worthwhile_block_ns:
            self.block_lends_suppressed += 1
            return False
        return True
