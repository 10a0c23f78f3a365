"""The built-in benchmark suite.

Quick suite (what CI ratchets on, ``--quick``):

* ``scenario_capacity`` — capacity under every arrival shape, plus the
  default-vs-``"poisson"`` cross-check (must agree to 1e-9).
* ``scenario_service``  — QoS satisfaction / latency per scenario at a
  fixed mean load.
* ``trace_roundtrip``   — record -> save -> load -> replay equality,
  single-node and fleet.
* ``engine_scale`` / ``cluster_scale`` — the standalone scale gauges.
* ``hetero_fleet``      — mixed CPU+accelerator fleet: capacity vs
  CPU-only, device-affinity routing, accelerator scheduler A/B.
* ``telemetry_overhead`` — null-tracer overhead bound, tracing on/off
  report bit-identity, summarize-reproduces-report exactness.
* ``closed_loop``       — request model: closed-loop feedback under
  shedding, accelerator dynamic batching >=1.3x goodput at
  equal-or-better p99.

Full suite adds every paper figure (``benchmarks/bench_fig*.py``, run
through pytest; their ``record(...)`` calls write the JSON results).
"""

from __future__ import annotations

import dataclasses
import time

from repro.bench.compare import Tolerance
from repro.bench.registry import (
    Benchmark,
    BenchContext,
    register_benchmark,
)
from repro.bench.results import BenchResult

#: The two-model stack every native quick benchmark shares.
_QUICK_MODELS = ("mobilenet_v2", "googlenet")
#: Scenario shapes the suite exercises (mix-agnostic ones).
_SHAPES = ("poisson", "bursty", "diurnal", "flash_crowd", "tenant_churn")

#: Exact-equality tolerance: the metric is a delta that must be ~0.
_EXACT = Tolerance(rel=0.0, abs=1e-9)
#: Capacity numbers: bisection-quantised, allow modest drift.
_CAPACITY = Tolerance(rel=0.15, abs=5.0)
#: Rates/latencies: deterministic, but leave room for env drift.
_RATE = Tolerance(rel=0.10, abs=0.02)


def _quick_spec():
    from repro.serving.workload import WorkloadSpec
    return WorkloadSpec(name="quick-mix",
                        entries=(("mobilenet_v2", 2.0),
                                 ("googlenet", 1.0)))


def _report_fields(report, prefix: str) -> dict[str, float]:
    return {
        f"{prefix}_sat": report.satisfaction_rate,
        f"{prefix}_avg_ms": report.average_latency_s * 1e3,
        f"{prefix}_p99_ms": report.p99_latency_s * 1e3,
    }


# ---------------------------------------------------------------------------
# Native quick benchmarks


def _run_scenario_capacity(ctx: BenchContext) -> list[BenchResult]:
    from repro.cluster import cluster_capacity, homogeneous
    stack = ctx.stack(_QUICK_MODELS)
    spec = _quick_spec()
    search = dict(count=ctx.queries, router="round_robin",
                  tolerance_qps=ctx.tolerance_qps, low_qps=5.0,
                  high_qps=400.0, seed=ctx.seed, workers=ctx.workers)

    def capacity(policy, **kwargs):
        return cluster_capacity(stack, homogeneous(1, policy=policy), spec,
                                **search, **kwargs)

    metrics: dict[str, float] = {}
    info: dict[str, object] = {}
    lines = [f"{'scenario':14s} {'policy':14s} {'capacity':>9s} "
             f"{'sat':>7s}"]
    # The default stream (scenario=None) vs the named "poisson"
    # scenario: the cross-check that the default is the paper's
    # stationary Poisson stream.
    deltas = []
    for policy in ("layerwise", "veltair_full"):
        default = capacity(policy)
        scen = capacity(policy, scenario="poisson")
        metrics[f"capacity_{policy}"] = default.qps
        metrics[f"capacity_{policy}_passed"] = float(default.passed)
        deltas.append(abs(default.qps - scen.qps))
        lines.append(f"{'(default)':14s} {policy:14s} "
                     f"{default.label:>9s} "
                     f"{default.report.satisfaction_rate:7.2%}")
    metrics["poisson_equivalence_max_abs"] = max(deltas)

    for shape in _SHAPES:
        result = capacity("veltair_full", scenario=shape)
        metrics[f"capacity_full_{shape}"] = result.qps
        metrics[f"capacity_full_{shape}_passed"] = float(result.passed)
        lines.append(f"{shape:14s} {'veltair_full':14s} "
                     f"{result.label:>9s} "
                     f"{result.report.satisfaction_rate:7.2%}")
    info["policies"] = ["layerwise", "veltair_full"]

    title = "Scenario capacity: QPS at 95% QoS per arrival shape"
    return [BenchResult(
        name="scenario_capacity", title=title, metrics=metrics,
        knobs=ctx.knobs(models=list(_QUICK_MODELS)), info=info,
        tables={title: "\n".join(lines)}, seed=ctx.seed)]


def _run_scenario_service(ctx: BenchContext) -> list[BenchResult]:
    from repro.serving.metrics import summarize
    from repro.serving.workload import scenario_queries

    stack = ctx.stack(_QUICK_MODELS)
    spec = _quick_spec()
    qps = 150.0
    seed = ctx.seed + 6  # offset: independent of the capacity stream
    metrics: dict[str, float] = {}
    lines = [f"{'scenario':14s} {'sat':>7s} {'avg':>9s} {'p99':>9s} "
             f"{'span':>7s}"]
    for shape in _SHAPES:
        queries = scenario_queries(stack.compiled, shape, qps,
                                   ctx.queries, seed=seed, spec=spec)
        completed, engine = stack.run("veltair_full", queries)
        report = summarize(completed, engine.metrics, qps)
        span = max(q.arrival_s for q in queries)
        metrics.update(_report_fields(report, shape))
        metrics[f"{shape}_empirical_qps"] = len(queries) / span
        lines.append(f"{shape:14s} {report.satisfaction_rate:7.2%} "
                     f"{report.average_latency_s * 1e3:7.2f}ms "
                     f"{report.p99_latency_s * 1e3:7.2f}ms "
                     f"{span:6.2f}s")
    title = (f"Scenario service: veltair_full at {qps:.0f} mean QPS "
             "per arrival shape")
    return [BenchResult(
        name="scenario_service", title=title, metrics=metrics,
        knobs=ctx.knobs(models=list(_QUICK_MODELS), qps=qps),
        tables={title: "\n".join(lines)}, seed=seed)]


def _run_trace_roundtrip(ctx: BenchContext) -> list[BenchResult]:
    import tempfile
    from pathlib import Path

    from repro.cluster import Cluster, homogeneous
    from repro.serving.metrics import summarize
    from repro.serving.workload import scenario_queries
    from repro.workloads import ArrivalTrace, record_trace

    stack = ctx.stack(_QUICK_MODELS)
    spec = _quick_spec()
    qps = 120.0
    seed = ctx.seed + 12  # offset: independent of the other suites

    def fresh_stream():
        # Engines mutate queries, so every consumer needs its own copy;
        # a fixed seed makes regenerations identical.
        return scenario_queries(stack.compiled, "bursty", qps,
                                ctx.queries, seed=seed, spec=spec)

    trace = record_trace(fresh_stream(), "bench-roundtrip",
                         meta={"scenario": "bursty", "qps": qps,
                               "seed": seed})
    with tempfile.TemporaryDirectory() as tmp:
        path = trace.save(Path(tmp) / "trace.json")
        loaded = ArrivalTrace.load(path)

    def node_report(qs):
        completed, engine = stack.run("veltair_full", qs)
        return summarize(completed, engine.metrics, qps)

    direct = node_report(fresh_stream())
    replay = node_report(loaded.replay(stack.compiled))
    single_delta = max(
        abs(getattr(direct, f.name) - getattr(replay, f.name))
        for f in dataclasses.fields(direct)
        if isinstance(getattr(direct, f.name), float))

    fleet = homogeneous(2)
    direct_fleet = Cluster(stack, fleet).serve(fresh_stream(),
                                               offered_qps=qps)
    replay_fleet = Cluster(stack, fleet).serve(
        loaded.replay(stack.compiled), offered_qps=qps)
    cluster_delta = max(
        abs(direct_fleet.satisfaction_rate
            - replay_fleet.satisfaction_rate),
        abs(direct_fleet.goodput_qps - replay_fleet.goodput_qps))

    metrics = {
        "single_node_max_abs_delta": single_delta,
        "cluster_max_abs_delta": cluster_delta,
        "replay_sat": replay.satisfaction_rate,
        "fleet_replay_sat": replay_fleet.satisfaction_rate,
        "trace_span_s": trace.span_s,
    }
    title = "Trace record/replay round trip (single node + fleet)"
    lines = [
        f"trace: {len(trace)} arrivals over {trace.span_s:.2f}s (bursty "
        f"@ {qps:.0f} mean QPS)",
        f"single-node report max |direct - replay| = {single_delta:.2e}",
        f"2-node fleet max |direct - replay| = {cluster_delta:.2e}",
        f"replay sat single={replay.satisfaction_rate:.2%} "
        f"fleet={replay_fleet.satisfaction_rate:.2%}",
    ]
    return [BenchResult(
        name="trace_roundtrip", title=title, metrics=metrics,
        knobs=ctx.knobs(models=list(_QUICK_MODELS), qps=qps),
        tables={title: "\n".join(lines)}, seed=seed)]


def _run_compile_cache(ctx: BenchContext) -> list[BenchResult]:
    """Cold-vs-warm artifact-store compile: speedup + bit-identity.

    Builds the *default-zoo* stack twice against one on-disk store —
    first cold (store empty, every layer compiles), then warm (every
    layer loads) — and A/B-verifies that the cached artifacts are
    bit-identical: version tables, latency tables, level maps, and a
    full ``veltair_full`` serving report must all match exactly.  The
    acceptance floor is a 5x warm speedup on the zoo build.
    """
    import tempfile
    from pathlib import Path

    from repro.compiler.artifacts import ArtifactStore
    from repro.serving.metrics import summarize
    from repro.serving.server import ServingStack
    from repro.serving.workload import scenario_queries

    spec = _quick_spec()
    qps = 150.0
    seed = ctx.seed + 23  # offset: independent of the other suites

    def build(store: ArtifactStore) -> tuple[ServingStack, float]:
        stack = ServingStack(trials=ctx.trials, seed=11,
                             use_proxy=False, artifact_store=store)
        start = time.perf_counter()
        stack.ensure_compiled()
        return stack, time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store"
        cold_stack, cold_s = build(ArtifactStore(path))
        warm_stack, warm_s = build(ArtifactStore(path))

    tables_identical = all(
        a.versions == b.versions
        and a.latency_table == b.latency_table
        and a.version_for_level == b.version_for_level
        and a.levels == b.levels
        and a.qos_budget_s == b.qos_budget_s
        for name in cold_stack.model_names
        for a, b in zip(cold_stack.compiled[name].layers,
                        warm_stack.compiled[name].layers))

    def report(stack: ServingStack):
        queries = scenario_queries(stack.compiled, "poisson", qps,
                                   ctx.queries, seed=seed, spec=spec)
        completed, engine = stack.run("veltair_full", queries)
        return summarize(completed, engine.metrics, qps)

    cold_report, warm_report = report(cold_stack), report(warm_stack)
    report_delta = max(
        abs(getattr(cold_report, f.name) - getattr(warm_report, f.name))
        for f in dataclasses.fields(cold_report)
        if isinstance(getattr(cold_report, f.name), (int, float)))

    cold, warm = cold_stack.compiler.stats, warm_stack.compiler.stats
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    metrics = {
        "warm_speedup": speedup,
        "warm_speedup_at_least_5x": 1.0 if speedup >= 5.0 else 0.0,
        "version_tables_identical": 1.0 if tables_identical else 0.0,
        "report_max_abs_delta": report_delta,
        "unique_layers": float(cold_stack.compiler.unique_layers),
        "cold_fresh_compiles": float(cold.compiled_fresh),
        "cold_dedup_shared": float(cold.memo_hits),
        "warm_store_hits": float(warm.store_hits),
        "warm_fresh_compiles": float(warm.compiled_fresh),
    }
    title = "Compile cache: cold vs warm artifact-store stack build"
    lines = [
        f"models: full zoo ({len(cold_stack.model_names)} models, "
        f"trials={ctx.trials})",
        f"cold build {cold_s * 1e3:8.1f}ms  ({cold.compiled_fresh} "
        f"compiled, {cold.memo_hits} deduped of {cold.layers_total} "
        "layers)",
        f"warm build {warm_s * 1e3:8.1f}ms  ({warm.store_hits} store "
        f"hits, {warm.compiled_fresh} compiled)",
        f"speedup {speedup:8.1f}x  (acceptance floor: 5x)",
        f"version tables identical: {tables_identical}",
        f"serving report max |cold - warm| = {report_delta:.2e}",
    ]
    return [BenchResult(
        name="compile_cache", title=title, metrics=metrics,
        knobs=ctx.knobs(models=list(cold_stack.model_names), qps=qps),
        info={"cold_build_s": cold_s, "warm_build_s": warm_s},
        tables={title: "\n".join(lines)}, seed=seed)]


_SCENARIO_CAPACITY_TOL = {
    "poisson_equivalence_max_abs": _EXACT,
    **{f"capacity_{name}_passed": _EXACT
       for name in ("layerwise", "veltair_full",
                    *(f"full_{shape}" for shape in _SHAPES))}}
_TRACE_TOL = {"single_node_max_abs_delta": _EXACT,
              "cluster_max_abs_delta": _EXACT,
              "trace_span_s": Tolerance(rel=0.05, abs=0.01)}

register_benchmark(Benchmark(
    name="scenario_capacity", kind="native", quick=True,
    description="capacity per arrival shape + default/poisson "
                "scenario cross-check",
    runner=_run_scenario_capacity,
    tolerances=_SCENARIO_CAPACITY_TOL, default_tolerance=_CAPACITY))
register_benchmark(Benchmark(
    name="scenario_service", kind="native", quick=True,
    description="QoS satisfaction and latency per scenario at fixed "
                "mean load",
    runner=_run_scenario_service, default_tolerance=_RATE))
register_benchmark(Benchmark(
    name="trace_roundtrip", kind="native", quick=True,
    description="trace record->save->load->replay equality, "
                "single-node and fleet",
    runner=_run_trace_roundtrip, tolerances=_TRACE_TOL,
    default_tolerance=_RATE))
register_benchmark(Benchmark(
    name="compile_cache", kind="native", quick=True,
    description="cold-vs-warm artifact-store stack build: speedup + "
                "bit-identity A/B",
    runner=_run_compile_cache,
    tolerances={
        # Identity and dedup counts are deterministic: gate exactly.
        "warm_speedup_at_least_5x": _EXACT,
        "version_tables_identical": _EXACT,
        "report_max_abs_delta": _EXACT,
        "unique_layers": _EXACT,
        "cold_fresh_compiles": _EXACT,
        "cold_dedup_shared": _EXACT,
        "warm_store_hits": _EXACT,
        "warm_fresh_compiles": _EXACT,
        # Wall-clock ratio: recorded for the CI artifact, effectively
        # ungated (machine-dependent); the 5x floor above is the gate.
        "warm_speedup": Tolerance(rel=0.0, abs=1e12,
                                  direction="higher_is_better"),
    },
    default_tolerance=_EXACT))

# ---------------------------------------------------------------------------
# Standalone scale gauges (scripts with their own acceptance checks)

register_benchmark(Benchmark(
    name="engine_scale", kind="script", quick=True,
    description="engine hot-path pushes/repricings per query, "
                "legacy vs incremental",
    path="bench_engine_scale.py",
    tolerances={"reports_identical": _EXACT},
    default_tolerance=Tolerance(rel=0.25, abs=0.5)))
register_benchmark(Benchmark(
    name="cluster_scale", kind="script", quick=True,
    description="fleet capacity per router; compile-pass sharing; "
                "reconciliation",
    path="bench_cluster_scale.py",
    tolerances={"totals_reconcile": _EXACT,
                "artifact_builds": _EXACT,
                **{f"capacity_{router}_passed": _EXACT
                   for router in ("round_robin", "least_outstanding",
                                  "join_shortest_queue", "pressure_aware")},
                **{f"scaling_{nodes}_nodes_passed": _EXACT
                   for nodes in (1, 2, 4)}},
    default_tolerance=Tolerance(rel=0.30, abs=10.0)))
register_benchmark(Benchmark(
    name="hetero_fleet", kind="script", quick=True,
    description="mixed CPU+accelerator fleet capacity, device-affinity "
                "routing, accelerator scheduler A/B",
    path="bench_hetero_fleet.py",
    tolerances={"artifact_builds": _EXACT,
                "mixed_ge_cpu_only": _EXACT,
                "affinity_ge_pressure": _EXACT,
                "affinity_deterministic": _EXACT,
                **{f"capacity_{label}_passed": _EXACT
                   for label in ("cpu_pressure", "hetero_pressure",
                                 "hetero_affinity")}},
    default_tolerance=Tolerance(rel=0.30, abs=10.0)))
register_benchmark(Benchmark(
    name="telemetry_overhead", kind="script", quick=True,
    description="null-tracer overhead bound; tracing on/off report "
                "bit-identity; summarize-reproduces-report exactness",
    path="bench_telemetry_overhead.py",
    tolerances={
        # The telemetry contracts: pass/fail, ratcheted exactly.
        "reports_identical_on_off": _EXACT,
        "cluster_identical_on_off": _EXACT,
        "summarize_matches_report": _EXACT,
        "trace_wellformed": _EXACT,
        "null_overhead_le_2pct": _EXACT,
        # Emission volume is deterministic for a fixed stream.
        "records_per_query": Tolerance(rel=0.0, abs=1e-9),
        "guard_evaluations": Tolerance(rel=0.0, abs=1e-9),
        # Machine-dependent bound; the <=2% gate above is the ratchet.
        "null_overhead_pct": Tolerance(rel=0.0, abs=100.0),
    },
    default_tolerance=Tolerance(rel=0.30, abs=0.5)))
register_benchmark(Benchmark(
    name="closed_loop", kind="script", quick=True,
    description="request model: closed-loop feedback under shedding; "
                "accelerator dynamic batching >=1.3x goodput at "
                "equal-or-better p99",
    path="bench_closed_loop.py",
    tolerances={
        # The acceptance gates themselves: pass/fail, ratcheted exactly.
        "closed_totals_ok": _EXACT,
        "closed_shed_occurred_ok": _EXACT,
        "closed_below_open_ok": _EXACT,
        "closed_repeat_identical_ok": _EXACT,
        "batch_ratio_ok": _EXACT,
        "batch_p99_ok": _EXACT,
        # Past-knee numbers are chaotic by design (the plain side is a
        # collapsing queue); only the gates above are tight.
        "batch_goodput_ratio": Tolerance(rel=0.80, abs=0.5),
        "batch_plain_goodput_qps": Tolerance(rel=0.80, abs=200.0),
        "batch_plain_sat": Tolerance(rel=0.80, abs=200.0),
        "batch_plain_p99_ms": Tolerance(rel=0.80, abs=100.0),
    },
    default_tolerance=Tolerance(rel=0.30, abs=50.0)))
register_benchmark(Benchmark(
    name="autoscale", kind="script", quick=True,
    description="elastic fleet vs static peak: QoS ratio and "
                "node-seconds on diurnal/flash-crowd load",
    path="bench_autoscale.py",
    tolerances={
        # The acceptance gates themselves: pass/fail, ratcheted exactly.
        "diurnal_qos_ratio_ok": _EXACT,
        "diurnal_node_seconds_ok": _EXACT,
        "flash_qos_ratio_ok": _EXACT,
        "flash_node_seconds_ok": _EXACT,
    },
    default_tolerance=Tolerance(rel=0.25, abs=0.15)))

# ---------------------------------------------------------------------------
# Paper figures (pytest modules; full suite only)

_FIGURES: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("fig01", "bench_fig01_motivation.py", ("fig01a", "fig01b"),
     "latency vs cores; co-location slowdown"),
    ("fig02", "bench_fig02_tvm_vs_vendor.py", ("fig02",),
     "vendor library vs searched code"),
    ("fig03", "bench_fig03_granularity.py", ("fig03a", "fig03b"),
     "QoS satisfaction and latency vs QPS by granularity"),
    ("fig04", "bench_fig04_core_scaling.py", ("fig04a", "fig04b"),
     "speedup vs cores; core allocation"),
    ("fig05", "bench_fig05_conflict.py", ("fig05a", "fig05b"),
     "conflict rate vs QPS; per-layer conflict overhead"),
    ("fig06", "bench_fig06_versions.py", ("fig06",),
     "versions across interference levels"),
    ("fig07", "bench_fig07_version_need.py", ("fig07a", "fig07b"),
     "performance loss vs retained versions"),
    ("fig09", "bench_fig09_pareto.py", ("fig09",),
     "Pareto frontier pipeline"),
    ("fig10", "bench_fig10_blocks.py", ("fig10b",),
     "CPU usage by granularity"),
    ("fig11", "bench_fig11_proxy.py", ("fig11a", "fig11b"),
     "counter PCA; linear proxy accuracy"),
    ("fig12", "bench_fig12_qps.py", ("fig12",),
     "QPS at 95% QoS satisfied (headline)"),
    ("fig13", "bench_fig13_latency.py", ("fig13",),
     "latency normalised to isolated run"),
    ("fig14", "bench_fig14_sensitivity.py",
     ("fig14a", "fig14b", "fig14c"),
     "sensitivity: core usage, versions"),
    ("table2", "bench_table2_overhead.py", ("table2", "sec55_overhead"),
     "evaluated models; scheduler overhead"),
    ("ablations", "bench_ablations.py",
     ("ablation_thresholds", "ablation_proxy", "ablation_soon_filter"),
     "threshold / proxy / filter ablations"),
)

for _name, _path, _produces, _desc in _FIGURES:
    register_benchmark(Benchmark(
        name=_name, kind="pytest", quick=False, description=_desc,
        path=_path, produces=_produces,
        default_tolerance=Tolerance(rel=0.15, abs=0.05)))


# ---------------------------------------------------------------------------
# Shared run helper (used by the CLI)


def run_native(benchmark: Benchmark,
               ctx: BenchContext) -> tuple[list[BenchResult], float]:
    """Run a native benchmark, returning (results, wall seconds)."""
    start = time.perf_counter()
    results = benchmark.runner(ctx)
    return results, time.perf_counter() - start
