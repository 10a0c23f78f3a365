"""Static layer-block scheduling — Block(6) / Block(11) of paper Fig. 3.

Consecutive layers are grouped into fixed-size blocks; each block gets
the minimal core grant meeting the sum of its layers' budgets.  Blocks
smooth the core-demand spikes of layer-wise scheduling, but a *fixed*
size can't fit every model/load combination — the motivation for the
dynamic blocks of :mod:`repro.scheduling.dynamic_block`.

The stride planner here is also GACER's (:mod:`repro.scheduling.gacer`),
which varies the stride and the per-block cap with its concurrency.
"""

from __future__ import annotations

from repro.runtime.engine import Engine
from repro.runtime.tasks import Query, unit_layers
from repro.scheduling.base import (
    BlockPlan,
    SpatialScheduler,
    block_required_cores,
)


class FixedBlockScheduler(SpatialScheduler):
    """Blocks of ``block_size`` consecutive layers, static versions."""

    allow_grow = True
    admit_full_grant_only = True
    #: Fraction of the block's summed layer budgets its grant targets.
    budget_headroom = 1.0

    def __init__(self, cost_model, profiles, block_size: int) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        super().__init__(cost_model, profiles)
        self.block_size = block_size

    @property
    def block_layers(self) -> int:
        """Layers per block (the stride)."""
        return self.block_size

    @property
    def block_cap(self) -> int:
        """Most cores one block may be granted."""
        return self.cost_model.cpu.cores

    def plan(self, engine: Engine, query: Query) -> BlockPlan | None:
        """Static versions over ``[start, start + stride)``.

        The plan is memoised on ``(model, start, stop, cap)`` (plus the
        batch size for fused batches): versions, budget and
        :func:`block_required_cores` are pure functions of that key.
        """
        start = query.next_layer
        stop = min(start + self.block_layers, len(query.model.layers))
        cap = self.block_cap
        key = (query.model.name, start, stop, cap)
        if query.batch > 1:
            key = key + (query.batch,)
        plan = self._plan_cache.get(key)
        if plan is None:
            profile = self.profile_for(query)
            versions = profile.static_versions[start:stop]
            budget = (sum(profile.layer_budgets_s[start:stop])
                      * self.budget_headroom)
            plan = BlockPlan(stop, block_required_cores(
                self.cost_model, unit_layers(query, start, stop), versions,
                budget, cap=cap), versions)
            self._plan_cache.put(key, plan)
        return plan
