"""Shared fixtures: one small compiled stack reused across the suite.

Compilation and profiling are the expensive steps, so they are built once
per session with reduced search budgets; tests that need heavier setups
build their own.
"""

from __future__ import annotations

import pytest

from repro.compiler.costmodel import CostModel
from repro.compiler.library import ModelCompiler
from repro.compiler.multiversion import SinglePassCompiler
from repro.hardware.platform import THREADRIPPER_3990X
from repro.models.layers import Conv2D, Dense, Elementwise, Pool
from repro.serving.server import ServingStack


@pytest.fixture(scope="session")
def cpu():
    return THREADRIPPER_3990X


@pytest.fixture(scope="session")
def cost_model(cpu):
    return CostModel(cpu)


@pytest.fixture(scope="session")
def conv_layer():
    """The paper's Fig. 6 running example: 14x14, 256->256, 3x3."""
    return Conv2D(name="fig6", height=14, width=14,
                  in_channels=256, out_channels=256)


@pytest.fixture(scope="session")
def small_layers():
    """A spread of layer kinds for parametrised substrate tests."""
    return [
        Conv2D(name="c3", height=28, width=28, in_channels=128,
               out_channels=128),
        Conv2D(name="c1", height=56, width=56, in_channels=64,
               out_channels=256, kernel_h=1, kernel_w=1),
        Dense(name="fc", m=64, n=1000, k=2048),
        Pool(name="pool", height=56, width=56, channels=64),
        Elementwise(name="relu", elements=100_000),
    ]


@pytest.fixture(scope="session")
def compiler(cost_model):
    return ModelCompiler(
        cost_model, SinglePassCompiler(cost_model, trials=96, seed=1))


@pytest.fixture(scope="session")
def resnet_stack():
    """A ResNet-50-only serving stack with small search budgets."""
    return ServingStack(models=["resnet50"], trials=96,
                        proxy_scenarios=60, seed=11)


@pytest.fixture(scope="session")
def light_stack():
    """Two light models for multi-model serving tests."""
    return ServingStack(models=["mobilenet_v2", "googlenet"], trials=96,
                        proxy_scenarios=60, seed=11)


@pytest.fixture(scope="session")
def chain_stack():
    """The ``vision_pipeline`` chain's two models, small search budgets."""
    return ServingStack(models=["ssd_resnet34", "resnet50"], trials=64,
                        proxy_scenarios=60, seed=11)
