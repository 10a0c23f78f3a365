"""Serving layer: workload generation, metrics, and the system facade.

Load sweeps and capacity searches live in :mod:`repro.cluster.experiments`:
a single node is a one-node ``round_robin`` fleet.
"""

from repro.serving.metrics import (
    ServingReport,
    max_qps_at_satisfaction,
    meets_target,
    summarize,
)
from repro.serving.server import POLICIES, ServingStack
from repro.serving.workload import (
    HEAVY_MIX,
    LIGHT_MIX,
    MEDIUM_MIX,
    WorkloadSpec,
    class_mix,
    full_mix,
    scenario_queries,
    single_model,
)

__all__ = [
    "ServingReport", "max_qps_at_satisfaction", "meets_target",
    "summarize",
    "POLICIES", "ServingStack",
    "WorkloadSpec", "class_mix", "full_mix", "scenario_queries",
    "single_model",
    "LIGHT_MIX", "MEDIUM_MIX", "HEAVY_MIX",
]
