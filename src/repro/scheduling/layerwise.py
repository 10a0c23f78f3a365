"""Layer-wise spatial scheduling — the Planaria-style baseline (Sec. 3.2).

Every layer is allocated its minimal core requirement individually.  When
the request exceeds the free cores, the layer starts on whatever is
available and *grows* once cores free up (the paper's conflict-recovery
technique); each growth pays a thread-spawn overhead, which is exactly
the per-layer conflict cost the paper measures at ~220 us mean (Fig. 5b).

This is also the granularity substrate of VELTAIR-AC: adaptive
compilation without adaptive scheduling (:class:`AdaptiveCompilationOnly`)
selects interference-matched versions but still schedules layer by layer.
"""

from __future__ import annotations

from repro.runtime.engine import Engine
from repro.runtime.tasks import Query
from repro.scheduling.base import BlockPlan, SpatialScheduler
from repro.scheduling.veltair import AdaptiveCompilation


class LayerWiseScheduler(SpatialScheduler):
    """One layer per scheduling unit, versions from the planning hooks."""

    allow_grow = True

    def plan(self, engine: Engine, query: Query) -> BlockPlan | None:
        profile = self.profile_for(query)
        index = query.next_layer
        pressure = self.planning_pressure(engine)
        version = self.version_for(query, index, pressure)
        desired = self.required_cores_for(profile, index, version, pressure)
        return BlockPlan(index + 1, desired, (version,))


class AdaptiveCompilationOnly(AdaptiveCompilation, LayerWiseScheduler):
    """VELTAIR-AC: adaptive version selection at layer granularity.

    Versions are matched to the current planning pressure, but without
    layer blocks the tolerant (high-parallelism) versions inflate core
    demand and conflicts — the interaction paper Sec. 5.2 calls out.
    """

    admit_full_grant_only = True
