"""Planning-path memos: layer signatures, block plans, version ids.

These memos exist only to take key-building out of the simulation hot
path, so the contract tested here is that they are invisible: a memoised
signature is the tuple a fresh computation gives and never leaks into
layer identity, a memoised block plan yields the same per-query timeline
as recomputing every plan, plans memoised on a node runtime by earlier
serves change no later serve, and an interned version tuple prices the
same in every engine sharing a pricing cache.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle

import pytest

from repro.compiler.artifacts import ArtifactStore
from repro.hardware.platform import EDGE_NODE_32
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
from repro.runtime.pricing import PricingCache
from repro.runtime.tasks import Query
from repro.scheduling.base import SpatialScheduler
from repro.scheduling.veltair import VeltairScheduler
from repro.serving.server import POLICIES, ServingStack
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
    return timeline, scheduler


def _memos(scheduler) -> list:
    """The planning memos a scheduler holds."""
    return [memo for memo in (getattr(scheduler, "_plan_cache", None),
                              getattr(scheduler, "_required_cache", None))
            if memo is not None]


class TestPlanMemoDifferential:
    """Memoised plans reproduce a recompute-every-plan run exactly."""

    @pytest.mark.parametrize("policy", ["veltair_full", "veltair_as",
                                        "veltair_ac", "block6", "gacer"])
    def test_mixed_poisson_stream(self, light_stack, replanning_stack,
                                  policy):
        memo, memo_scheduler = _serve(light_stack, policy, _MIX, qps=400.0,
                                      count=160, seed=21)
        plain, plain_scheduler = _serve(replanning_stack, policy, _MIX,
                                        qps=400.0, count=160, seed=21)
        assert memo == plain
        # The load is high enough to exercise conflicts (and grows, for
        # the policies that grow conflicted blocks).
        assert sum(row[3] for row in memo) > 0
        if memo_scheduler.allow_grow:
            assert sum(row[4] for row in memo) > 0
        # The default memos serve most lookups; the 1-entry ones few.
        memos = _memos(memo_scheduler)
        plain_memos = _memos(plain_scheduler)
        assert (sum(m.hits for m in memos)
                > sum(m.misses for m in memos))
        assert (sum(m.misses for m in plain_memos)
                > sum(m.hits for m in plain_memos))
        assert all(len(m) <= 1 for m in plain_memos)

    @pytest.mark.parametrize("policy", ["veltair_full", "veltair_as"])
    def test_batched_stream(self, light_stack, replanning_stack, policy):
        batching = BatchPolicy(max_batch=4, max_wait_s=0.005)
        memo, memo_scheduler = _serve(light_stack, policy, _MONO,
                                      qps=2000.0, count=48, seed=5,
                                      batching=batching, qos_scale=8.0)
        plain, _ = _serve(replanning_stack, policy, _MONO, qps=2000.0,
                          count=48, seed=5, batching=batching,
                          qos_scale=8.0)
        assert memo == plain
        # Fused batches planned under batch-suffixed keys.
        assert any(len(key) == 5
                   for key in memo_scheduler._plan_cache._data)


@pytest.fixture(scope="module")
def memo_store(tmp_path_factory):
    """Compiled artifacts shared by this module's stacks (fast rebuilds)."""
    return ArtifactStore(tmp_path_factory.mktemp("memo-store"))


def _stack(store: ArtifactStore) -> ServingStack:
    return ServingStack(models=["mobilenet_v2", "googlenet"], trials=64,
                        proxy_scenarios=60, seed=11, artifact_store=store)


def _runtime_serve(stack: ServingStack, policy: str, seed: int):
    queries = scenario_queries(stack.compiled, "poisson", 400.0, 120,
                               seed=seed, spec=_MIX)
    done, engine = stack.run(policy, queries)
    metrics = dataclasses.asdict(engine.metrics)
    # Counts the shared pricing cache's misses: depends on its warmth.
    del metrics["prices_computed"]
    return sorted((q.query_id, q.started_s, q.finished_s, q.conflicts,
                   q.grows, q.blocks, q.core_seconds) for q in done), metrics


@pytest.fixture(scope="module")
def warmed_stack(memo_store):
    """A stack whose every policy already served another stream."""
    stack = _stack(memo_store)
    for policy in POLICIES:
        _runtime_serve(stack, policy, seed=3)
    return stack


class TestRuntimeScopedMemos:
    """Planning memos live on the node runtime, one pair per policy."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_warm_serve_equals_fresh_stack(self, memo_store, warmed_stack,
                                           policy):
        warm = _runtime_serve(warmed_stack, policy, seed=21)
        fresh = _runtime_serve(_stack(memo_store), policy, seed=21)
        assert warm == fresh
        assert len(warm[0]) == 120

    def test_warm_rerun_plans_from_memory(self, warmed_stack):
        memos = warmed_stack.runtime_for().planning_memos(
            "veltair_full", warmed_stack.plan_cache_entries)
        before = sum(memo.misses for memo in memos)
        hits = sum(memo.hits for memo in memos)
        _runtime_serve(warmed_stack, "veltair_full", seed=3)
        assert sum(memo.misses for memo in memos) == before
        assert sum(memo.hits for memo in memos) > hits

    def test_memos_are_per_policy_and_per_device(self, memo_store):
        stack = ServingStack(models=["mobilenet_v2", "googlenet"],
                             trials=64, use_proxy=False, seed=11,
                             artifact_store=memo_store)
        runtimes = (stack.runtime_for(), stack.runtime_for(EDGE_NODE_32))
        entries = stack.plan_cache_entries
        memos = [memo for runtime in runtimes for policy in POLICIES
                 for memo in runtime.planning_memos(policy, entries)]
        assert len(memos) == 2 * 2 * len(POLICIES)
        assert all(a is not b for a, b in itertools.combinations(memos, 2))
        for runtime in runtimes:
            for policy in POLICIES:
                pair = runtime.planning_memos(policy, entries)
                assert runtime.planning_memos(policy, entries) is pair
                scheduler = stack.make_scheduler(policy, runtime=runtime)
                if isinstance(scheduler, SpatialScheduler):
                    assert scheduler._plan_cache is pair[0]
                    assert scheduler._required_cache is pair[1]


class TestVersionInterning:
    """Price keys carry version-tuple ids interned by the pricing cache."""

    @staticmethod
    def _start(engine: Engine, stack: ServingStack, versions, qid: int):
        compiled = stack.compiled["mobilenet_v2"]
        query = Query(query_id=qid, model=compiled, arrival_s=0.0,
                      qos_s=compiled.qos_s)
        return engine.running[engine.start_block(query, len(versions), 4,
                                                 versions)]

    def test_one_id_across_engines_sharing_a_cache(self, light_stack):
        compiled = light_stack.compiled["mobilenet_v2"]
        static = light_stack.profiles["mobilenet_v2"].static_versions[:3]
        other = tuple(layer.versions[-1] for layer in compiled.layers[:3])
        assert other != static
        cache = PricingCache()
        first = Engine(light_stack.cost_model, price_cache=cache)
        second = Engine(light_stack.cost_model, price_cache=cache)
        a = self._start(first, light_stack, static, qid=0)
        # The second engine meets another tuple first: its ids must
        # still agree with the first engine's, or its prices would be
        # read from the other tuple's entries.
        b_other = self._start(second, light_stack, other, qid=1)
        b = self._start(second, light_stack, static, qid=2)
        assert b.versions_id == a.versions_id != b_other.versions_id
        private = Engine(light_stack.cost_model, price_cache=PricingCache())
        reference = self._start(private, light_stack, other, qid=3)
        assert b_other.pressure == reference.pressure
        assert b.pressure == a.pressure

    def test_memoised_plan_started_on_another_cache(self, light_stack):
        """A memoised plan started on another cache gets that cache's id."""
        scheduler = VeltairScheduler(light_stack.cost_model,
                                     light_stack.profiles, proxy=None)
        compiled = light_stack.compiled["mobilenet_v2"]
        blocks = []
        for cache in (PricingCache(), PricingCache()):
            if blocks:
                cache.intern(("another",))  # this cache's id 0 is taken
            engine = Engine(light_stack.cost_model, price_cache=cache)
            engine.begin([Query(query_id=0, model=compiled, arrival_s=0.0,
                                qos_s=compiled.qos_s)], scheduler)
            engine.run_until(0.0)
            (block,) = engine.running.values()
            assert block.versions_id == cache.intern(block.versions)
            blocks.append(block)
        # The second dispatch started the first one's memoised plan.
        assert blocks[0].versions == blocks[1].versions
        assert scheduler._plan_cache.hits > 0
