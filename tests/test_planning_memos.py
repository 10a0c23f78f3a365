"""Planning-path memos: per-instance layer signatures, whole block plans.

Both memos exist only to take key-building out of the simulation hot
path, so the contract tested here is that they are invisible: a memoised
signature is the tuple a fresh computation gives and never leaks into
layer identity, and a memoised block plan yields the same per-query
timeline as recomputing every plan.
"""

from __future__ import annotations

import pickle

import pytest

from repro.models.layers import (
    BatchedLayer,
    Conv2D,
    Elementwise,
    FusedLayer,
    LayerSpec,
    batched,
)
from repro.models.registry import get_model, model_names
from repro.runtime.engine import BatchPolicy, Engine
from repro.serving.server import ServingStack
from repro.serving.workload import WorkloadSpec, scenario_queries

_MIX = WorkloadSpec(name="memo-mix", entries=(("mobilenet_v2", 2.0),
                                              ("googlenet", 1.0)))
_MONO = WorkloadSpec(name="memo-mono", entries=(("mobilenet_v2", 1.0),))


def _fresh_signature(layer: LayerSpec) -> tuple:
    g = layer.gemm
    return (layer.kind, g.m, g.n, g.k, layer.flops,
            layer.input_bytes, layer.weight_bytes, layer.output_bytes)


def _zoo_layers() -> list[LayerSpec]:
    layers: list[LayerSpec] = []
    for name in model_names():
        for fused in (True, False):
            layers.extend(get_model(name, fused=fused).layers)
    return layers


def _conv() -> Conv2D:
    return Conv2D(name="c", height=14, width=14, in_channels=64,
                  out_channels=128)


def _fused() -> FusedLayer:
    return FusedLayer(
        name="c+relu+add", anchor=_conv(),
        epilogues=(Elementwise(name="relu", elements=14 * 14 * 128),
                   Elementwise(name="add", elements=14 * 14 * 128,
                               reads_second_input=True)))


class TestSignatureMemo:
    def test_zoo_signatures_match_fresh_and_repeat_same_object(self):
        layers = _zoo_layers()
        layers += [_fused(), batched(_conv(), 4), batched(_fused(), 2)]
        assert any(isinstance(layer, FusedLayer) for layer in layers)
        assert any(isinstance(layer, BatchedLayer) for layer in layers)
        for layer in layers:
            first = layer.signature
            assert first == _fresh_signature(layer)
            assert layer.signature is first

    @pytest.mark.parametrize("make", [_conv, _fused,
                                      lambda: batched(_conv(), 3)])
    def test_memo_is_not_part_of_layer_identity(self, make):
        cold, warm = make(), make()
        signature = warm.signature  # populate the memo on one side only
        assert warm == cold and cold == warm
        assert repr(warm) == repr(cold)
        assert "_signature" not in repr(warm)

        restored = pickle.loads(pickle.dumps(warm))
        assert restored == cold
        assert repr(restored) == repr(cold)
        assert restored.signature == signature
        # repro: ignore[no-salted-hash] -- compared within one process only
        assert hash(warm) == hash(restored) == hash(cold)

    def test_signature_stays_a_plain_property(self):
        descriptor = LayerSpec.__dict__["signature"]
        assert type(descriptor) is property
        assert descriptor.fget is not None


@pytest.fixture(scope="module")
def replanning_stack():
    """``light_stack``'s twin whose plan memo holds a single entry."""
    return ServingStack(models=["mobilenet_v2", "googlenet"], trials=96,
                        proxy_scenarios=60, seed=11, plan_cache_entries=1)


def _serve(stack: ServingStack, policy: str, spec: WorkloadSpec,
           qps: float, count: int, seed: int,
           batching: BatchPolicy | None = None, qos_scale: float = 1.0):
    queries = scenario_queries(stack.compiled, "poisson", qps, count,
                               seed=seed, spec=spec)
    for query in queries:
        query.qos_s *= qos_scale
    scheduler = stack.make_scheduler(policy)
    engine = Engine(stack.cost_model, price_cache=stack.price_cache,
                    batching=batching)
    completed = engine.run(queries, scheduler)
    timeline = sorted((q.query_id, q.started_s, q.finished_s, q.conflicts,
                       q.grows, q.core_seconds) for q in completed)
    return timeline, scheduler._plan_cache


class TestPlanMemoDifferential:
    """Memoised plans reproduce a recompute-every-plan run exactly."""

    @pytest.mark.parametrize("policy", ["veltair_full", "veltair_as"])
    def test_mixed_poisson_stream(self, light_stack, replanning_stack,
                                  policy):
        memo, memo_cache = _serve(light_stack, policy, _MIX, qps=400.0,
                                  count=160, seed=21)
        plain, plain_cache = _serve(replanning_stack, policy, _MIX,
                                    qps=400.0, count=160, seed=21)
        assert memo == plain
        # The load is high enough to exercise conflicts and grows.
        assert sum(row[3] for row in memo) > 0
        assert sum(row[4] for row in memo) > 0
        # The default memo serves most plans; the 1-entry one few.
        assert memo_cache.hits > memo_cache.misses
        assert plain_cache.misses > plain_cache.hits
        assert len(plain_cache) <= 1

    @pytest.mark.parametrize("policy", ["veltair_full", "veltair_as"])
    def test_batched_stream(self, light_stack, replanning_stack, policy):
        batching = BatchPolicy(max_batch=4, max_wait_s=0.005)
        memo, memo_cache = _serve(light_stack, policy, _MONO, qps=2000.0,
                                  count=48, seed=5, batching=batching,
                                  qos_scale=8.0)
        plain, _ = _serve(replanning_stack, policy, _MONO, qps=2000.0,
                          count=48, seed=5, batching=batching,
                          qos_scale=8.0)
        assert memo == plain
        # Fused batches planned under batch-suffixed keys.
        assert any(len(key) == 5 for key in memo_cache._data)
