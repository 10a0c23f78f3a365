"""Engine-overhaul invariants: equivalence, monotonicity, heap bounds.

These tests pin the hot-path rework's contract:

* incremental repricing is an *optimization*, not a semantic change —
  per-policy ``ServingReport``s are identical (within 1e-9) with it on
  and off;
* block progress is monotone non-decreasing between grows;
* the event heap stays bounded by live work, not by pushed events;
* the shared pricing cache eliminates repeat cost-model pricing across
  runs without affecting results;
* compiled artifacts are bit-reproducible across processes (the
  ``hash()``-seeded search regression).
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.cluster import cluster_capacity, homogeneous, sweep_cluster_qps
from repro.runtime.engine import Engine
from repro.runtime.pricing import PricingCache
from repro.serving.metrics import summarize
from repro.serving.workload import WorkloadSpec, scenario_queries

DUO_SPEC = WorkloadSpec(name="duo", entries=(("mobilenet_v2", 1.0),
                                             ("googlenet", 1.0)))


def _assert_reports_equal(a, b, tolerance=1e-9):
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, float):
            if va == vb:
                continue
            assert abs(va - vb) <= tolerance, (
                f"{field.name}: {va!r} != {vb!r}")
        else:
            assert va == vb, f"{field.name}: {va!r} != {vb!r}"


def _run_engine(stack, policy, queries, incremental):
    engine = Engine(stack.cost_model, price_cache=stack.price_cache,
                    incremental=incremental)
    return engine.run(queries, stack.make_scheduler(policy)), engine


def _node_sweep(stack, loads, count, **kwargs):
    """One-node ``veltair_full`` reports over ``loads`` (DUO_SPEC)."""
    return [report.nodes[0].report for report in sweep_cluster_qps(
        stack, homogeneous(1), DUO_SPEC, loads, count,
        router="round_robin", **kwargs)]


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("policy", ["layerwise", "veltair_full"])
    def test_reports_identical_before_after(self, light_stack, policy):
        reports = {}
        for incremental in (False, True):
            queries = scenario_queries(light_stack.compiled, "poisson", 400,
                                       120, seed=7, spec=DUO_SPEC)
            completed, engine = _run_engine(light_stack, policy, queries,
                                            incremental)
            reports[incremental] = summarize(completed, engine.metrics,
                                             400)
        _assert_reports_equal(reports[False], reports[True])

    def test_incremental_strictly_cheaper(self, light_stack):
        counts = {}
        for incremental in (False, True):
            queries = scenario_queries(light_stack.compiled, "poisson", 400,
                                       120, seed=7, spec=DUO_SPEC)
            _, engine = _run_engine(light_stack, "veltair_full", queries,
                                    incremental)
            counts[incremental] = (engine.metrics.finish_events_pushed,
                                   engine.metrics.repricings)
        assert counts[True][0] < counts[False][0]
        assert counts[True][1] < counts[False][1]


class _ProgressRecorder:
    """Scheduler wrapper that snapshots per-task progress each call."""

    def __init__(self, inner):
        self.inner = inner
        self.history: dict[int, list[float]] = {}

    def schedule(self, engine):
        for task_id, block in engine.running.items():
            self.history.setdefault(task_id, []).append(block.progress)
        self.inner.schedule(engine)


class TestProgressMonotonicity:
    def test_monotone_without_grows(self, light_stack):
        """With a no-grow policy progress never decreases at all."""
        queries = scenario_queries(light_stack.compiled, "poisson", 300, 60,
                                   seed=3, spec=DUO_SPEC)
        engine = Engine(light_stack.cost_model)
        recorder = _ProgressRecorder(light_stack.make_scheduler(
            "model_fcfs"))
        engine.run(queries, recorder)
        assert engine.metrics.grows == 0
        for samples in recorder.history.values():
            assert all(later >= earlier for earlier, later
                       in zip(samples, samples[1:]))

    def test_never_negative_with_grows(self, light_stack):
        """Grows charge overhead against progress but never below zero."""
        queries = scenario_queries(light_stack.compiled, "poisson", 400, 80,
                                   seed=3, spec=DUO_SPEC)
        engine = Engine(light_stack.cost_model)
        recorder = _ProgressRecorder(light_stack.make_scheduler(
            "layerwise"))
        engine.run(queries, recorder)
        assert engine.metrics.grows > 0  # the scenario exercises grows
        assert all(progress >= 0.0
                   for samples in recorder.history.values()
                   for progress in samples)


class TestHeapBounds:
    def test_heap_stays_bounded_by_live_blocks(self, light_stack):
        """Heap peak tracks live work, not the number of pushed events."""
        count = 400
        queries = scenario_queries(light_stack.compiled, "poisson", 500, count,
                                   seed=7, spec=DUO_SPEC)
        completed, engine = light_stack.run("veltair_full", queries)
        assert len(completed) == count
        metrics = engine.metrics
        # Live finish events <= concurrently running blocks <= cores;
        # compaction keeps stale entries within the same order, plus one
        # staged arrival and the compaction trigger slack.
        bound = 2 * (light_stack.cpu.cores + 1) + 64
        assert metrics.heap_peak <= bound
        assert metrics.heap_peak < metrics.finish_events_pushed
        assert engine._stale_finish >= 0


class TestSharedPricingCache:
    def test_cross_run_reuse_and_identity(self, light_stack):
        """Identical reruns price nothing new and change nothing."""
        def run_once():
            queries = scenario_queries(light_stack.compiled, "poisson", 300,
                                       60, seed=5, spec=DUO_SPEC)
            completed, engine = light_stack.run("veltair_full", queries)
            return (summarize(completed, engine.metrics, 300),
                    engine.metrics.prices_computed)

        first_report, _ = run_once()
        second_report, second_prices = run_once()
        assert second_prices == 0  # every block priced from the cache
        _assert_reports_equal(first_report, second_report, tolerance=0.0)

    def test_cache_bounds_and_stats(self):
        cache = PricingCache(max_entries=8)
        for index in range(20):
            cache.put(("key", index), float(index + 1))
        assert len(cache) <= 8
        assert cache.evictions > 0
        assert cache.get(("key", 19)) == 20.0
        assert cache.get(("missing",)) is None
        assert 0.0 < cache.hit_rate < 1.0

    def test_cache_rejects_none_and_bad_size(self):
        with pytest.raises(ValueError):
            PricingCache(max_entries=0)
        with pytest.raises(ValueError):
            PricingCache().put("key", None)

    def test_cache_bound_to_one_cost_model(self, light_stack,
                                           resnet_stack):
        """Keys omit the cost model, so cross-model sharing must fail."""
        cache = PricingCache()
        Engine(light_stack.cost_model, price_cache=cache)
        Engine(light_stack.cost_model, price_cache=cache)  # same: fine
        with pytest.raises(ValueError, match="different cost model"):
            Engine(resnet_stack.cost_model, price_cache=cache)


class TestSweepQps:
    def test_serial_matches_pointwise(self, light_stack):
        loads = [100.0, 250.0]
        swept = _node_sweep(light_stack, loads, 40, seed=9)
        for qps, report in zip(loads, swept):
            queries = scenario_queries(light_stack.compiled, "poisson", qps,
                                       40, seed=9, spec=DUO_SPEC)
            completed, engine = light_stack.run("veltair_full", queries)
            _assert_reports_equal(report,
                                  summarize(completed, engine.metrics,
                                            qps), tolerance=0.0)

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="fork start method unavailable")
    def test_parallel_matches_serial(self, light_stack):
        loads = [100.0, 200.0, 300.0, 400.0]
        serial = _node_sweep(light_stack, loads, 40, seed=9, workers=1)
        parallel = _node_sweep(light_stack, loads, 40, seed=9, workers=2)
        for a, b in zip(serial, parallel):
            _assert_reports_equal(a, b, tolerance=0.0)

    def test_empty_sweep(self, light_stack):
        assert _node_sweep(light_stack, [], 10) == []

    def test_capacity_workers_unchanged_at_batch_one(self, light_stack):
        search = dict(count=40, router="round_robin", low_qps=20.0,
                      high_qps=400.0, tolerance_qps=50.0, seed=9)
        serial = cluster_capacity(light_stack, homogeneous(1), DUO_SPEC,
                                  **search)
        explicit = cluster_capacity(light_stack, homogeneous(1), DUO_SPEC,
                                    workers=1, **search)
        assert serial.qps == explicit.qps
        _assert_reports_equal(serial.report.nodes[0].report,
                              explicit.report.nodes[0].report,
                              tolerance=0.0)


class TestCompilationReproducibility:
    """Regression: per-layer search seeds must not depend on hash()."""

    SNIPPET = (
        "from repro.compiler.costmodel import CostModel\n"
        "from repro.compiler.multiversion import SinglePassCompiler\n"
        "from repro.hardware.platform import THREADRIPPER_3990X\n"
        "from repro.models.layers import Conv2D\n"
        "layer = Conv2D(name='probe', height=14, width=14,\n"
        "               in_channels=64, out_channels=64)\n"
        "entry = SinglePassCompiler(CostModel(THREADRIPPER_3990X),\n"
        "                           trials=64, seed=11).compile_layer(\n"
        "    layer, qos_budget_s=1e-3)\n"
        "print(repr(entry.versions))\n"
    )

    def test_identical_across_hash_seeds(self):
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"),
                              env.get("PYTHONPATH", "")]))
            result = subprocess.run(
                [sys.executable, "-c", self.SNIPPET], env=env,
                capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
