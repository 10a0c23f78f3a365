"""The full VELTAIR runtime scheduler — paper Alg. 3.

Dynamic layer blocks (Alg. 2, inherited) combined with adaptive code
version selection: at every dispatch the scheduler estimates the system
interference pressure — through the linear performance-counter proxy of
Sec. 4.3, or directly from the simulator state in oracle mode — ignores
soon-to-finish blocks, picks each layer's version for that pressure
level, and sizes the block's core grant with the interference-adjusted
requirements.
"""

from __future__ import annotations

from repro.interference.proxy import (
    LinearInterferenceProxy,
    estimate_system_pressure,
)
from repro.runtime.engine import Engine
from repro.runtime.pricing import PricingCache
from repro.runtime.tasks import Query
from repro.scheduling.base import ModelProfile
from repro.scheduling.dynamic_block import (
    DEFAULT_PLAN_CACHE_ENTRIES,
    DynamicBlockScheduler,
    ProportionalThresholdPolicy,
)


class VeltairScheduler(DynamicBlockScheduler):
    """Adaptive scheduling + adaptive compilation (VELTAIR-FULL)."""

    def __init__(self, cost_model, profiles,
                 proxy: LinearInterferenceProxy | None = None,
                 threshold_policy: ProportionalThresholdPolicy | None = None,
                 plan_cache_entries: int = DEFAULT_PLAN_CACHE_ENTRIES,
                 ) -> None:
        super().__init__(cost_model, profiles,
                         threshold_policy=threshold_policy,
                         plan_cache_entries=plan_cache_entries)
        self.proxy = proxy
        # Per-layer requirements keyed (signature, version, budget,
        # pressure), read only by the pivot walk of a whole-plan miss.
        # Size-bounded by the same knob as the plan memo: eviction only
        # costs a deterministic recompute, so results are unchanged.
        self._required_cache = PricingCache(
            max_entries=plan_cache_entries)

    def planning_pressure(self, engine: Engine) -> float:
        """Current interference estimate, quantised for cache reuse.

        With a proxy the estimate comes from the monitored L3 counters;
        without one the simulator's planning pressure (which already
        applies the soon-to-finish filter) acts as an oracle.  The
        estimate is snapped to the engine's pricing quantum — pricing
        cannot distinguish finer levels, so a finer planning key would
        only fragment the version/core-requirement caches.
        """
        estimate = estimate_system_pressure(engine, self.proxy)
        return engine.quantize_pressure(estimate)

    def version_for(self, query: Query, index: int, pressure: float):
        return query.model.layers[index].version_for(pressure)

    def required_cores_for(self, profile: ModelProfile, index: int,
                           version, pressure: float) -> int:
        layer = profile.compiled.graph.layers[index]
        key = (layer.signature, version,
               profile.layer_budgets_s[index], pressure)
        cached = self._required_cache.get(key)
        if cached is None:
            launch = self.cost_model.launch_s
            budget = max(profile.layer_budgets_s[index] - launch, 1e-7)
            cached = self.cost_model.required_cores(layer, version, budget,
                                                    pressure)
            if cached is None:
                cached = self.cost_model.cpu.cores
            self._required_cache.put(key, cached)
        return cached
