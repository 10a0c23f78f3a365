"""Dynamic threshold-based layer-block formation — paper Alg. 2 + Sec. 4.3.

Blocks are cut at *conflict-prone* layers: a layer whose core requirement
exceeds ``Avg_C + thres`` starts a new block, and every block's grant is
capped at that bound — the block absorbs the spike by giving its other
layers more cores and letting the block meet the summed budget (paper
Fig. 10a).

The threshold is recomputed at every dispatch from the live system state
(paper Sec. 4.3): the cores left idle after granting every active model
its average requirement are distributed to models proportionally to their
average demand.  Low load => large threshold => big grants and maximal
resource-usage efficiency; high load => small threshold => demand is
flattened toward the average and conflicts stay rare.

This scheduler with static versions is the VELTAIR-AS configuration;
with the adaptive-compilation mixin on top it is VELTAIR-FULL
(:mod:`repro.scheduling.veltair`).
"""

from __future__ import annotations

from repro.runtime.engine import Engine
from repro.runtime.tasks import Query, unit_layers
from repro.scheduling.base import (
    BlockPlan,
    SpatialScheduler,
    block_required_cores,
)


class ProportionalThresholdPolicy:
    """Paper Sec. 4.3: distribute idle cores proportionally to ``Avg_C``.

    The threshold depends on the set of co-located queries and the
    candidate's model, and the co-location set changes on nearly every
    dispatch, so it is recomputed at each one.
    """

    def threshold_for(self, scheduler: "DynamicBlockScheduler",
                      engine: Engine, query: Query) -> int:
        profile = scheduler.profile_for(query)
        active_queries = {block.query.query_id: block.query
                          for block in engine.running.values()}
        active_queries[query.query_id] = query
        averages = [scheduler.profile_for(q).avg_cores
                    for q in active_queries.values()]
        total_average = sum(averages)
        idle = scheduler.cost_model.cpu.cores - total_average
        if idle <= 0:
            return 0
        return int(idle * profile.avg_cores / total_average)


class DynamicBlockScheduler(SpatialScheduler):
    """Alg. 2 layer blocks over the planning hooks (static: VELTAIR-AS)."""

    allow_grow = True
    admit_full_grant_only = True
    traces_planning_pressure = True
    #: Blocks target finishing *ahead* of their summed budget so that
    #: interference jitter and queueing do not push queries over QoS;
    #: the Avg_C + thres cap still bounds how many cores that may cost
    #: (Alg. 2's "no more than Avg_C + thres").
    budget_headroom = 0.8

    def __init__(self, cost_model, profiles,
                 threshold_policy: ProportionalThresholdPolicy | None = None,
                 ) -> None:
        super().__init__(cost_model, profiles)
        self.threshold_policy = (threshold_policy
                                 or ProportionalThresholdPolicy())

    # -- Alg. 2 ----------------------------------------------------------------

    def find_first_pivot(self, engine: Engine, query: Query, cap: int,
                         pressure: float) -> int:
        """First layer after the block start whose demand exceeds the cap.

        Returns the pivot index (the beginning of the *next* block), or
        the model length when no later layer is conflict-prone.
        """
        profile = self.profile_for(query)
        start = query.next_layer
        # "Much higher than the averaged value" (paper Sec. 4.2): only
        # layers clearly above the cap split a block; borderline layers
        # are absorbed by the block's shared budget.
        cutoff = cap * 1.25
        for index in range(start + 1, len(query.model.layers)):
            version = self.version_for(query, index, pressure)
            if self.required_cores_for(profile, index, version,
                                       pressure) >= cutoff:
                return index
        return len(query.model.layers)

    def plan(self, engine: Engine, query: Query) -> BlockPlan | None:
        """Next block for ``query``: pivot, versions and core demand.

        The whole plan is memoised on ``(model, start, cap, pressure)``
        (plus the batch size for fused batches).  That is valid because
        the block boundary and the versions are pure functions of that
        key: :meth:`version_for` and :meth:`required_cores_for` read only
        the model, its profile and the pressure, and the budget is a
        slice of the profile.  A hit therefore skips the pivot walk, the
        version tuple and :func:`block_required_cores` altogether.
        """
        profile = self.profile_for(query)
        pressure = self.planning_pressure(engine)
        threshold = self.threshold_policy.threshold_for(self, engine, query)
        cap = min(self.cost_model.cpu.cores,
                  max(1, profile.avg_cores + threshold))

        start = query.next_layer
        key = (query.model.name, start, cap, pressure)
        if query.batch > 1:
            # Fused batches plan against batch-scaled profiles; a longer
            # tuple cannot collide with any unit-batch key.
            key = key + (query.batch,)
        plan = self._plan_cache.get(key)
        if plan is None:
            stop = self.find_first_pivot(engine, query, cap, pressure)
            versions = tuple(self.version_for(query, i, pressure)
                             for i in range(start, stop))
            budget = (sum(profile.layer_budgets_s[start:stop])
                      * self.budget_headroom)
            plan = BlockPlan(stop, block_required_cores(
                self.cost_model, unit_layers(query, start, stop), versions,
                budget, interference=pressure, cap=cap), versions)
            self._plan_cache.put(key, plan)
        return plan
