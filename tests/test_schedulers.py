"""Policy tests: each scheduler's defining behaviour on small streams."""

import dataclasses
import hashlib
import json

import pytest

from repro.runtime.engine import Engine
from repro.serving.server import POLICIES
from repro.telemetry import Tracer
from repro.serving.workload import scenario_queries, single_model
from repro.serving.metrics import summarize
from repro.scheduling.dynamic_block import ProportionalThresholdPolicy


def _serve(stack, policy, model="resnet50", qps=50, count=40):
    queries = scenario_queries(stack.compiled, "uniform", qps, count,
                               spec=single_model(model))
    engine = Engine(stack.cost_model)
    scheduler = stack.make_scheduler(policy)
    done = engine.run(queries, scheduler)
    return done, engine


class TestAllPoliciesServeLowLoad:
    @pytest.mark.parametrize("policy", [
        "model_fcfs", "layerwise", "block6", "block11",
        "veltair_as", "veltair_ac", "veltair_full", "prema",
    ])
    def test_low_load_all_queries_complete(self, resnet_stack, policy):
        done, engine = _serve(resnet_stack, policy, qps=30, count=25)
        assert len(done) == 25
        assert engine.allocator.used == 0


class TestModelWiseFcfs:
    def test_whole_model_single_block(self, resnet_stack):
        done, engine = _serve(resnet_stack, "model_fcfs", count=10)
        assert all(q.blocks == 1 for q in done)

    def test_no_conflicts_by_design(self, resnet_stack):
        done, engine = _serve(resnet_stack, "model_fcfs", qps=200,
                              count=40)
        assert engine.metrics.conflicts == 0

    def test_fixed_grant(self, resnet_stack):
        profile = resnet_stack.profiles["resnet50"]
        done, engine = _serve(resnet_stack, "model_fcfs", count=5)
        assert engine.metrics.max_cores_used % profile.model_cores == 0


class TestLayerWise:
    def test_one_block_per_layer(self, resnet_stack):
        done, _ = _serve(resnet_stack, "layerwise", qps=20, count=5)
        layers = len(resnet_stack.compiled["resnet50"].layers)
        assert all(q.blocks == layers for q in done)

    def test_conflicts_rise_with_load(self, resnet_stack):
        _, quiet = _serve(resnet_stack, "layerwise", qps=30, count=40)
        _, busy = _serve(resnet_stack, "layerwise", qps=150, count=40)
        quiet_rate = quiet.metrics.conflicts / quiet.metrics.blocks_started
        busy_rate = busy.metrics.conflicts / busy.metrics.blocks_started
        assert busy_rate >= quiet_rate

    def test_conflicted_blocks_grow(self, resnet_stack):
        _, engine = _serve(resnet_stack, "layerwise", qps=150, count=40)
        assert engine.metrics.grows > 0


class TestFixedBlocks:
    def test_block_count_matches_size(self, resnet_stack):
        done, _ = _serve(resnet_stack, "block6", qps=20, count=5)
        layers = len(resnet_stack.compiled["resnet50"].layers)
        expected = -(-layers // 6)
        assert all(q.blocks == expected for q in done)

    def test_fewer_conflicts_than_layerwise(self, resnet_stack):
        _, lw = _serve(resnet_stack, "layerwise", qps=150, count=40)
        _, blk = _serve(resnet_stack, "block11", qps=150, count=40)
        lw_rate = lw.metrics.conflicts / lw.metrics.blocks_started
        blk_rate = blk.metrics.conflicts / blk.metrics.blocks_started
        assert blk_rate <= lw_rate

    def test_rejects_zero_block_size(self, resnet_stack):
        with pytest.raises(ValueError):
            stack = resnet_stack
            from repro.scheduling.fixed_block import FixedBlockScheduler
            FixedBlockScheduler(stack.cost_model, stack.profiles,
                                block_size=0)


class TestDynamicBlocks:
    def test_blocks_fewer_than_layers(self, resnet_stack):
        done, _ = _serve(resnet_stack, "veltair_as", qps=20, count=5)
        layers = len(resnet_stack.compiled["resnet50"].layers)
        assert all(q.blocks < layers for q in done)

    def test_threshold_shrinks_with_load(self, resnet_stack):
        scheduler = resnet_stack.make_scheduler("veltair_as")
        policy = ProportionalThresholdPolicy()
        queries = scenario_queries(resnet_stack.compiled, "uniform", 10, 3,
                                   spec=single_model("resnet50"))
        engine = Engine(resnet_stack.cost_model)
        idle_thres = policy.threshold_for(scheduler, engine, queries[0])

        profile = resnet_stack.profiles["resnet50"]
        engine.waiting.extend(queries)
        engine.start_block(queries[1], len(queries[1].model.layers), 20,
                           profile.static_versions)
        engine.start_block(queries[2], len(queries[2].model.layers), 20,
                           profile.static_versions)
        busy_thres = policy.threshold_for(scheduler, engine, queries[0])
        assert busy_thres <= idle_thres

    def test_grant_capped_by_avg_plus_threshold(self, resnet_stack):
        scheduler = resnet_stack.make_scheduler("veltair_as")
        queries = scenario_queries(resnet_stack.compiled, "uniform", 10, 1,
                                   spec=single_model("resnet50"))
        engine = Engine(resnet_stack.cost_model)
        plan = scheduler.plan(engine, queries[0])
        assert plan.desired_cores <= resnet_stack.cpu.cores
        assert plan.desired_cores >= 1


class TestVeltairFull:
    def test_uses_proxy_estimate(self, resnet_stack):
        scheduler = resnet_stack.make_scheduler("veltair_full")
        assert scheduler.proxy is not None
        engine = Engine(resnet_stack.cost_model)
        assert 0.0 <= scheduler.planning_pressure(engine) <= 1.0

    def test_oracle_mode_without_proxy(self, resnet_stack):
        from repro.scheduling.veltair import VeltairScheduler
        scheduler = VeltairScheduler(resnet_stack.cost_model,
                                     resnet_stack.profiles, proxy=None)
        engine = Engine(resnet_stack.cost_model)
        assert scheduler.planning_pressure(engine) == 0.0

    def test_version_adapts_to_pressure(self, resnet_stack):
        compiled = resnet_stack.compiled["resnet50"]
        multi = [e for e in compiled.layers if e.version_count > 1]
        assert multi, "expected at least one multi-version layer"
        entry = multi[0]
        assert entry.version_for(0.0) != entry.version_for(1.0)


class TestPrema:
    def test_one_task_at_a_time(self, resnet_stack):
        scheduler = resnet_stack.make_scheduler("prema")
        queries = scenario_queries(resnet_stack.compiled, "uniform", 1000, 4,
                                   spec=single_model("resnet50"))
        engine = Engine(resnet_stack.cost_model)

        max_running = 0
        original = scheduler.schedule

        def spy(eng):
            nonlocal max_running
            max_running = max(max_running, len(eng.running))
            original(eng)

        scheduler.schedule = spy
        engine.run(queries, scheduler)
        assert max_running <= 1

    def test_tight_qos_preempts(self, light_stack):
        """Light (tight-QoS) queries get priority over waiting peers."""
        queries = scenario_queries(light_stack.compiled, "poisson", 200, 30,
                                   seed=3, spec=_mix_spec())
        engine = Engine(light_stack.cost_model)
        done = engine.run(queries, light_stack.make_scheduler("prema"))
        assert len(done) == 30

    def test_rejects_bad_quantum(self, resnet_stack):
        from repro.scheduling.prema import PremaScheduler
        with pytest.raises(ValueError):
            PremaScheduler(resnet_stack.cost_model, resnet_stack.profiles,
                           quantum_s=0.0)


def _mix_spec():
    from repro.serving.workload import WorkloadSpec
    return WorkloadSpec(name="duo", entries=(("mobilenet_v2", 1.0),
                                             ("googlenet", 1.0)))


class TestMultiModelServing:
    def test_mixed_stream_completes(self, light_stack):
        queries = scenario_queries(light_stack.compiled, "poisson", 100, 40,
                                   seed=5, spec=_mix_spec())
        engine = Engine(light_stack.cost_model)
        done = engine.run(queries, light_stack.make_scheduler(
            "veltair_full"))
        assert len(done) == 40
        served_models = {q.model.name for q in done}
        assert served_models == {"mobilenet_v2", "googlenet"}

    def test_veltair_beats_layerwise_at_load(self, light_stack):
        queries = scenario_queries(light_stack.compiled, "poisson", 400, 80,
                                   seed=6, spec=_mix_spec())
        results = {}
        for policy in ("layerwise", "veltair_full"):
            engine = Engine(light_stack.cost_model)
            done = engine.run(list(queries_copy(queries, light_stack)),
                              light_stack.make_scheduler(policy))
            results[policy] = summarize(done, engine.metrics, 400)
        assert (results["veltair_full"].satisfaction_rate
                >= results["layerwise"].satisfaction_rate)


def queries_copy(queries, stack):
    """Fresh Query objects (queries are mutated by the engine)."""
    from repro.runtime.tasks import Query
    return [Query(query_id=q.query_id, model=q.model,
                  arrival_s=q.arrival_s, qos_s=q.qos_s) for q in queries]



@pytest.fixture(scope="module")
def pin_stack():
    """``light_stack``'s twin with a known cost-model memo history.

    The cost model memoises breakdowns under a rounded interference key
    but stores the value computed at the first caller's exact pressure,
    so its contents depend on what ran before.  Fitting the proxy and
    every pinned run start from an emptied memo, which makes the digests
    independent of test order and of a warm artifact store.
    """
    from repro.serving.server import ServingStack
    stack = ServingStack(models=["mobilenet_v2", "googlenet"], trials=96,
                         proxy_scenarios=60, seed=11)
    for name in stack.model_names:
        stack.profiles[name]
    stack.cost_model._memo.clear()
    assert stack.proxy is not None
    return stack


def _pin_run(stack, policy, tracer=None):
    """One short unbatched mixed stream; (outcomes, engine metrics)."""
    stack.cost_model._memo.clear()
    queries = scenario_queries(stack.compiled, "poisson", 300, 60, seed=7,
                               spec=_mix_spec())
    engine = Engine(stack.cost_model, tracer=tracer)
    done = engine.run(queries, stack.make_scheduler(policy))
    outcomes = sorted((q.query_id, q.started_s, q.finished_s, q.conflicts,
                       q.grows, q.blocks, q.core_seconds) for q in done)
    return outcomes, dataclasses.asdict(engine.metrics)


def _digest(payload) -> str:
    # json renders floats with repr, which round-trips exactly.
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


#: sha256 of every policy's per-query outcomes and engine metrics on a
#: fixed stream, and of its recorded trace on the same stream.  Any
#: change to a scheduler's decisions or to what its dispatch events
#: record moves a digest; refactors of the planners must not.
_OUTCOME_PINS = {
    "model_fcfs":
        "3966f7c2bbfd3fe57b98ae0ae670fc1869593ab24b4e5516a6f0db27abc188be",
    "layerwise":
        "30a0b573c0c5d566b5dc387c791aec0b4958f4e5fb127aebacb339227a2ebf66",
    "prema":
        "6ffc6079b86c1bc8e20ed0c71123178276c0f7f7bf8d94cb25519d36d6fc4fbf",
    "block6":
        "40379c8750b20adf0602c4232b049c1b453c80058af832c31e176b157dcd0f07",
    "block11":
        "87b0c7224fa3e1dfbf5daaa1c8b66580af0de5791a11b20087a7f849f7e8b456",
    "veltair_as":
        "ad0ac93676f398e9817814ea3dda592f17f8cd0f0a39fae761d87b786457b466",
    "veltair_ac":
        "f59d6acc4bdb5e8d8cc1039257d584f94d909b8cf2de8d71ecfd9a67b2b496e6",
    "veltair_full":
        "1f059399ecd380ff5f985d6675be220284739bb43e502b1d963c0775352e8d2b",
    "gacer":
        "3359a996cd018178c3d8a1384ea15ae76355f344f66ff389fcf1e59f20ef0a40",
}
_TRACE_PINS = {
    "model_fcfs":
        "3916e9469005fc754a2c6ef80e7564e743f06be4057e0d845e17958599b90486",
    "layerwise":
        "ea35ef69a7d46574e132c962e74b6f9ded5164018b3f033fb1a53873095e4e95",
    "prema":
        "e18f839111a33f8b3874eb346a295bbadb67709680af263da9db40e36ee4248c",
    "block6":
        "54c477db381e40195e652b6db5df420e0ed0f27131f24749fed5a0126ea8a5d8",
    "block11":
        "12a234dfd706549d2647317954d96b76d5cc2370b1aaf6341e8373410d77dfc3",
    "veltair_as":
        "96483570e47c54e41cc68e235ccbb00936d1297874a63416bc5b5582a63f152e",
    "veltair_ac":
        "7e36dc9cd23d22789b2cf6defeb3f4fea44c37ab258be955eca06dd938300bd4",
    "veltair_full":
        "96b8e1b135e6a0d0938b61555f2b19feadaea0be6c2150d5d407e6ebf5d282e6",
    "gacer":
        "18bbcfd36c61b09fbf59a59cc86eb29d1227b840d3ac8053ae4a23a29f06c7d7",
}


class TestPolicyOutcomePins:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_outcomes_are_pinned(self, pin_stack, policy):
        outcomes, metrics = _pin_run(pin_stack, policy)
        assert len(outcomes) == 60
        assert _digest([outcomes, metrics]) == _OUTCOME_PINS[policy]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_trace_is_pinned(self, pin_stack, policy):
        tracer = Tracer()
        _pin_run(pin_stack, policy, tracer=tracer)
        records = [r.to_payload() for r in tracer.records]
        assert _digest(records) == _TRACE_PINS[policy]
