"""A single node is a one-node fleet.

:meth:`ServingStack.run` serves through the fleet drive loop.  These
tests hold that path to the bare engine it replaced: per-query outcomes
and every simulated metric, for every policy, on Poisson and uniform
streams, batched and unbatched.  They pin the one ordering the two
differ on — a finish and an arrival at the same instant — and check
that a serve fits the interference proxy only when something reads it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import Cluster, homogeneous
from repro.models.registry import get_entry
from repro.runtime.engine import BatchPolicy, Engine
from repro.runtime.tasks import Query
from repro.serving.server import POLICIES, ServingStack
from repro.serving.workload import WorkloadSpec, scenario_queries
from repro.telemetry import Tracer

_MIX = WorkloadSpec(name="single-node-mix",
                    entries=(("mobilenet_v2", 2.0), ("googlenet", 1.0)))
_BATCHING = BatchPolicy(max_batch=4, max_wait_s=0.005)
#: Engine counters that legitimately differ between the two paths: the
#: fleet submits each arrival when it is due instead of staging one in
#: the heap (``heap_peak`` is never higher), and ``prices_computed``
#: counts the shared pricing cache's misses, so it depends on how warm
#: earlier runs left that cache.
_HOST_COUNTERS = ("heap_peak", "prices_computed")


def proxy_fitted(stack) -> bool:
    """Whether the stack device's proxy (a cached property) was read."""
    return "proxy" in vars(stack.runtime_for())


def _outcomes(queries) -> list[tuple]:
    return sorted((q.query_id, q.started_s, q.finished_s, q.conflicts,
                   q.grows, q.blocks, q.core_seconds) for q in queries)


def _one_node(stack, policy, queries, batching):
    """Serve ``queries`` on the single-node path; (completed, engine)."""
    if batching is None:
        return stack.run(policy, queries)
    cluster = Cluster(stack, homogeneous(1, device=stack.cpu, policy=policy,
                                         batching=batching),
                      router="round_robin")
    cluster.serve(queries)
    engine = cluster.last_nodes[0].engine
    return engine.completed, engine


def _bare_engine(stack, policy, queries, batching=None, tracer=None):
    engine = Engine(stack.cost_model, price_cache=stack.price_cache,
                    batching=batching, tracer=tracer)
    return engine.run(queries, stack.make_scheduler(policy)), engine


def _fleet_order(stack, policy, queries, batching=None):
    """A bare engine driven in the fleet's order; its completed list.

    Each arrival, in ``(arrival_s, query_id)`` order, is submitted only
    once the engine has run every event up to and including its
    instant — so a finish or batch timer at that instant goes first.
    """
    engine = Engine(stack.cost_model, price_cache=stack.price_cache,
                    batching=batching)
    engine.begin([], stack.make_scheduler(policy))
    for query in sorted(queries, key=lambda q: (q.arrival_s, q.query_id)):
        engine.run_until(query.arrival_s)
        engine.submit(query)
    return engine.drain()


class TestServeMatchesBareEngine:
    @pytest.mark.parametrize("batched", [False, True],
                             ids=["unbatched", "batched"])
    @pytest.mark.parametrize("scenario", ["poisson", "uniform"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_outcomes_and_metrics(self, light_stack, policy, scenario,
                                  batched):
        batching = _BATCHING if batched else None
        # At 500 QPS no 5 ms batch timer lands on a uniform arrival; the
        # 600 QPS stream, where every timer does, is pinned below.
        qps = 500.0 if batched else 300.0

        def stream():
            return scenario_queries(light_stack.compiled, scenario, qps, 60,
                                    seed=7, spec=_MIX)

        done, engine = _one_node(light_stack, policy, stream(), batching)
        ref_done, ref = _bare_engine(light_stack, policy, stream(),
                                     batching)
        assert len(done) == 60
        assert _outcomes(done) == _outcomes(ref_done)
        got = dataclasses.asdict(engine.metrics)
        want = dataclasses.asdict(ref.metrics)
        for name in _HOST_COUNTERS:
            del got[name], want[name]
        assert got == want
        assert engine.metrics.heap_peak <= ref.metrics.heap_peak


class TestEqualTimeTies:
    """An arrival at the instant of another engine event.

    The bare engine's :meth:`Engine.run` stages every arrival before any
    finish or batch-timer event exists, so on a tie the arrival is
    processed first.  The fleet drive loop steps the engine to the tie
    instant before it offers the arrival, so the engine's own event is
    processed first.  The single path keeps the fleet's order.
    """

    @staticmethod
    def _pair(stack, tie_s: float | None):
        compiled = stack.compiled["mobilenet_v2"]
        qos = get_entry("mobilenet_v2").qos_s
        first = Query(query_id=0, model=compiled, arrival_s=0.0, qos_s=qos)
        if tie_s is None:
            return [first]
        return [first, Query(query_id=1, model=compiled, arrival_s=tie_s,
                             qos_s=qos)]

    @staticmethod
    def _order(tracer) -> list[str]:
        """The tie's two records, in the order they were emitted."""
        order = []
        for record in tracer.records:
            if record.kind == "span" and record.cat == "query" \
                    and record.qid == 0:
                order.append("finish")
            elif record.name == "arrival" and record.qid == 1:
                order.append("arrival")
        return order

    def test_finish_runs_before_arrival(self, light_stack):
        policy = "veltair_full"
        (solo,), _ = light_stack.run(policy, self._pair(light_stack, None))
        tie_s = solo.finished_s

        tracer = Tracer()
        done, _ = light_stack.run(policy, self._pair(light_stack, tie_s),
                                  tracer=tracer)
        assert next(q for q in done if q.query_id == 0).finished_s == tie_s
        assert self._order(tracer) == ["finish", "arrival"]
        assert _outcomes(done) == _outcomes(_fleet_order(
            light_stack, policy, self._pair(light_stack, tie_s)))

        # Engine.run alone breaks the same tie the other way.
        bare_tracer = Tracer()
        _bare_engine(light_stack, policy, self._pair(light_stack, tie_s),
                     tracer=bare_tracer)
        assert self._order(bare_tracer) == ["arrival", "finish"]

    def test_batch_timer_runs_before_arrival(self, light_stack):
        # Uniform arrivals 1/600 s apart: a group's 5 ms timer fires at
        # the instant of the third arrival after the one that opened it.
        def stream():
            return scenario_queries(light_stack.compiled, "uniform", 600.0,
                                    60, seed=7, spec=_MIX)

        policy = "veltair_full"
        done, _ = _one_node(light_stack, policy, stream(), _BATCHING)
        assert _outcomes(done) == _outcomes(_fleet_order(
            light_stack, policy, stream(), _BATCHING))
        bare, _ = _bare_engine(light_stack, policy, stream(), _BATCHING)
        assert _outcomes(done) != _outcomes(bare)


class TestProxyFit:
    def test_fitted_only_when_read(self):
        stack = ServingStack(models=["mobilenet_v2"], trials=64, seed=11,
                             proxy_scenarios=60, artifact_store=None)
        spec = WorkloadSpec(name="mono", entries=(("mobilenet_v2", 1.0),))

        def stream():
            return scenario_queries(stack.compiled, "poisson", 100.0, 20,
                                    seed=3, spec=spec)

        stack.run("layerwise", stream())
        assert not proxy_fitted(stack)  # layerwise never reads the proxy
        Cluster(stack, homogeneous(1, policy="layerwise"),
                router="pressure_aware").serve(stream())
        assert proxy_fitted(stack)  # the router's pressure estimate does
