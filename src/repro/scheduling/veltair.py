"""Adaptive compilation (paper Alg. 3) and the full VELTAIR scheduler.

Adaptive compilation is one mixin over any block granularity: at every
dispatch the scheduler estimates the system interference pressure —
through the linear performance-counter proxy of Sec. 4.3, or directly
from the simulator state in oracle mode — ignores soon-to-finish blocks,
picks each layer's version for that pressure level, and sizes grants
with the interference-adjusted requirements.  On the dynamic layer
blocks of Alg. 2 it is VELTAIR-FULL (:class:`VeltairScheduler`); on
single layers it is the VELTAIR-AC ablation
(:class:`~repro.scheduling.layerwise.AdaptiveCompilationOnly`).
"""

from __future__ import annotations

from repro.compiler.schedule import Schedule
from repro.interference.proxy import (
    LinearInterferenceProxy,
    estimate_system_pressure,
)
from repro.runtime.engine import Engine
from repro.runtime.tasks import Query
from repro.scheduling.base import ModelProfile, layer_required_cores
from repro.scheduling.dynamic_block import DynamicBlockScheduler


class AdaptiveCompilation:
    """Planning hooks for interference-matched code versions.

    Mix in ahead of a :class:`~repro.scheduling.base.SpatialScheduler`
    subclass; its planner then reads these hooks instead of the static
    ones.  ``proxy=None`` estimates pressure in oracle mode.
    """

    def __init__(self, cost_model, profiles,
                 proxy: LinearInterferenceProxy | None = None,
                 **kwargs) -> None:
        super().__init__(cost_model, profiles, **kwargs)
        self.proxy = proxy

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

    def version_for(self, query: Query, index: int,
                    pressure: float) -> Schedule:
        return query.model.layers[index].version_for(pressure)

    def required_cores_for(self, profile: ModelProfile, index: int,
                           version: Schedule, pressure: float) -> int:
        """Minimal cores for one layer to meet its budget under pressure.

        The layer is the profile's own (batched for a fused batch, whose
        budgets are batch-scaled).  Memoised on (signature, version,
        budget, pressure): the value is a pure function of that key.
        """
        layer = profile.layers[index]
        key = (layer.signature, version,
               profile.layer_budgets_s[index], pressure)
        cached = self._required_cache.get(key)
        if cached is None:
            cached = layer_required_cores(
                self.cost_model, layer, version,
                profile.layer_budgets_s[index], pressure)
            self._required_cache.put(key, cached)
        return cached


class VeltairScheduler(AdaptiveCompilation, DynamicBlockScheduler):
    """Adaptive scheduling + adaptive compilation (VELTAIR-FULL)."""
