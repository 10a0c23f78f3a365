"""Runtime substrate: core allocation, task records, and the DES engine."""

from repro.runtime.allocator import AllocationError, CoreAllocator
from repro.runtime.engine import Engine, SimulationMetrics
from repro.runtime.pricing import PricingCache
from repro.runtime.tasks import Query, RunningBlock, unit_duration, unit_layers

__all__ = [
    "AllocationError", "CoreAllocator",
    "Engine", "SimulationMetrics",
    "PricingCache",
    "Query", "RunningBlock", "unit_duration", "unit_layers",
]
