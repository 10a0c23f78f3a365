"""Scheduling policies: baselines, granularity studies, and VELTAIR."""

from repro.scheduling.base import (
    BlockPlan,
    ModelProfile,
    SpatialScheduler,
    block_required_cores,
    build_profile,
    layer_required_cores,
    min_cores,
)
from repro.scheduling.dynamic_block import (
    DynamicBlockScheduler,
    ProportionalThresholdPolicy,
)
from repro.scheduling.fcfs_model import ModelWiseFcfs
from repro.scheduling.fixed_block import FixedBlockScheduler
from repro.scheduling.gacer import GacerScheduler
from repro.scheduling.layerwise import (
    AdaptiveCompilationOnly,
    LayerWiseScheduler,
)
from repro.scheduling.prema import PremaScheduler
from repro.scheduling.veltair import AdaptiveCompilation, VeltairScheduler

__all__ = [
    "BlockPlan", "ModelProfile", "SpatialScheduler",
    "block_required_cores", "build_profile", "layer_required_cores",
    "min_cores",
    "DynamicBlockScheduler", "ProportionalThresholdPolicy",
    "ModelWiseFcfs", "FixedBlockScheduler", "GacerScheduler",
    "AdaptiveCompilationOnly", "LayerWiseScheduler",
    "PremaScheduler", "AdaptiveCompilation", "VeltairScheduler",
]
