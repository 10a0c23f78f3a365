"""Untraced and traced runs of one workload, and the metrics they report.

End-to-end metrics (``--trace 0``) and per-layer metrics (``--trace 1``)
are named here once; ``BENCHMARK.json`` and ``METRICS.md`` use the same
names.  Per-layer figures are per simulated stage-level query unless
the name says otherwise (``setup.*`` and ``*.setup`` are per set-up).
"""

from __future__ import annotations

import gc
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from tracing import (
    SpanLog,
    at_nominal_speed,
    cpu_ns,
    instrument,
    reference_ns,
    wall_ns,
)
from workloads import (
    WORKLOADS,
    CheckFailed,
    Deployment,
    Rung,
    RungOutcome,
    Workload,
    capacity_qps,
    check_rung,
    deploy,
    fingerprint,
    rung_stats,
    serve_rung,
)
from repro.models.registry import get_model

__all__ = ["WORKLOADS", "CheckFailed", "print_table", "traced_run",
           "untraced_run"]

#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Where the traced run writes its spans (inside the checkout).
TRACE_DIR = Path(__file__).resolve().parent.parent / ".perfbench-out"


@dataclass
class Result:
    attempted: int
    failed: int
    #: name -> (value, unit), in report order.
    metrics: dict[str, tuple[float, str]]
    #: Per-rung simulated figures, for the human-readable table.
    ladder: list[tuple[Rung, dict[str, float]]] = field(default_factory=list)
    #: Figures printed but not reported in the JSON line.
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)


@dataclass
class Pass:
    """One pass over the ladder, one entry per rate."""

    outcomes: list[RungOutcome]
    digests: list[str]
    #: Host CPU ns of each rate's serve call.
    serve_ns: list[int]
    #: The same, scaled to the nominal host (untraced passes only).
    nominal_ns: list[float]
    stage_queries: int


def _run_pass(workload: Workload, deployment: Deployment, seed: int,
              log: SpanLog | None = None) -> Pass:
    """Serve the ladder once; untraced, each rate sits between two
    readings of the host's speed."""
    outcomes, nominal = [], []
    before = reference_ns() if log is None else 0
    for rung in workload.ladder:
        outcome = serve_rung(workload, deployment, rung, seed, log=log)
        outcomes.append(outcome)
        if log is None:
            after = reference_ns()
            nominal.append(at_nominal_speed(outcome.serve_ns, before, after))
            before = after
    return Pass(outcomes=outcomes,
                digests=[fingerprint(outcome) for outcome in outcomes],
                serve_ns=[outcome.serve_ns for outcome in outcomes],
                nominal_ns=nominal,
                stage_queries=sum(len(outcome.stages)
                                  for outcome in outcomes))


def _same_results(workload: Workload, reference: Pass, other: Pass,
                  what: str) -> None:
    for rung, expected, got in zip(workload.ladder, reference.digests,
                                   other.digests):
        if expected != got:
            raise CheckFailed(f"{what} changed the simulated results at "
                              f"{rung.qps:g} QPS")


def _prepare() -> None:
    """Load every model graph once so each timed set-up does equal work."""
    for workload in WORKLOADS.values():
        for name in workload.models:
            get_model(name)


def _simulated(workload: Workload, reference: Pass):
    """Check every rung, then reduce the ladder to per-rung figures."""
    ladder = []
    for outcome in reference.outcomes:
        check_rung(workload, outcome)
        ladder.append((outcome.rung, rung_stats(workload, outcome)))
    attempted = int(sum(stats["offered"] for _, stats in ladder))
    failed = int(sum(stats["failed"] for _, stats in ladder))
    return ladder, attempted, failed


@dataclass
class Timing:
    """Per-rate host CPU ns of each timed pass, and the last traced pass."""

    untraced_ns: list[list[int]] = field(default_factory=list)
    #: ``untraced_ns`` scaled to the nominal host.
    nominal_ns: list[list[float]] = field(default_factory=list)
    traced_ns: list[list[int]] = field(default_factory=list)
    log: SpanLog | None = None
    traced: Pass | None = None


def _median_pass_ns(passes: list[list[int]]) -> float:
    """Sum over rates of each rate's median serve time across passes."""
    return sum(statistics.median(rate) for rate in zip(*passes))


def _timed_passes(workload: Workload, deployment: Deployment, seed: int,
                  seconds: float, reference: Pass,
                  trace: bool = False) -> Timing:
    """Repeat the ladder for about ``seconds`` of wall time.

    With ``trace``, each untraced pass is followed by a traced one; the
    spans of the last traced pass are kept.  Every pass must reproduce
    ``reference`` exactly.
    """
    timing = Timing()
    began = wall_ns()
    per_round = 0.0
    while (not timing.untraced_ns
           or wall_ns() - began + per_round < seconds * 1e9):
        gc.collect()
        timed = _run_pass(workload, deployment, seed)
        _same_results(workload, reference, timed, "a repeated pass")
        timing.untraced_ns.append(timed.serve_ns)
        timing.nominal_ns.append(timed.nominal_ns)
        if trace:
            # Free the untraced pass and the previous traced one first.
            timed = timing.log = timing.traced = None
            gc.collect()
            log = SpanLog()
            with instrument(log), log.span("pass"):
                timed = _run_pass(workload, deployment, seed, log=log)
            _same_results(workload, reference, timed, "tracing")
            timing.traced_ns.append(timed.serve_ns)
            timing.log, timing.traced = log, timed
        timed = None
        per_round = (wall_ns() - began) / len(timing.untraced_ns)
    return timing


def _supported(metrics: dict[str, tuple[float, str]]):
    """``metrics``, refusing any figure its sample could not support."""
    for name, (value, _) in metrics.items():
        if value != value:
            raise CheckFailed(f"{name}: too few samples for the percentile")
    return metrics


def _end_to_end(ladder) -> dict[str, tuple[float, str]]:
    (_, lo), (_, hi) = ladder[0], ladder[-1]
    return _supported({
        "qos_sat_pct.lo": (lo["qos_sat_pct"], "%"),
        "qos_sat_pct.hi": (hi["qos_sat_pct"], "%"),
        "lat_p50_ms.lo": (lo["lat_p50_ms"], "ms"),
        "lat_p99_ms.lo": (lo["lat_p99_ms"], "ms"),
        "lat_p50_ms.hi": (hi["lat_p50_ms"], "ms"),
        "lat_p99_ms.hi": (hi["lat_p99_ms"], "ms"),
    })


def _ladder_summary(ladder, attempted: int, failed: int):
    return {
        "capacity_qps": (capacity_qps(ladder), "1/s"),
        "failed_pct": (100.0 * failed / attempted, "%"),
    }


def untraced_run(workload: Workload, seed: int, seconds: float) -> Result:
    """End-to-end metrics: set-up, host cost per query, simulated QoS."""
    _prepare()
    setup_ns, setup_nominal = [], []
    deployment = None
    for _ in range(SETUPS):
        deployment = None
        gc.collect()
        before = reference_ns()
        start = cpu_ns()
        deployment = deploy(workload)
        setup_ns.append(cpu_ns() - start)
        setup_nominal.append(at_nominal_speed(setup_ns[-1], before,
                                              reference_ns()))
    reference = _run_pass(workload, deployment, seed)
    ladder, attempted, failed = _simulated(workload, reference)
    reference.outcomes.clear()  # later passes compare digests only
    per_query = reference.stage_queries
    timing = _timed_passes(workload, deployment, seed, seconds, reference)
    metrics = {
        "setup_s": (statistics.median(setup_nominal) / 1e9, "s"),
        "host_us_per_query": (_median_pass_ns(timing.nominal_ns) / 1e3
                              / per_query, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    metrics.update(_end_to_end(ladder))
    extra = _ladder_summary(ladder, attempted, failed)
    extra["timed_passes"] = (float(len(timing.untraced_ns)), "count")
    extra["setup_s.unscaled"] = (statistics.median(setup_ns) / 1e9, "s")
    extra["host_us_per_query.unscaled"] = (
        _median_pass_ns(timing.untraced_ns) / 1e3 / per_query, "us")
    return Result(attempted=attempted, failed=failed, metrics=metrics,
                  ladder=ladder, extra=extra)


def traced_run(workload: Workload, seed: int, seconds: float) -> Result:
    """Per-layer metrics from spans recorded around each layer's calls."""
    _prepare()
    setup_log = SpanLog()
    gc.collect()
    with instrument(setup_log), setup_log.span("setup"):
        deployment = deploy(workload)
    layers_compiled = deployment.stack.compiler.stats.compiled_fresh
    reference = _run_pass(workload, deployment, seed)
    ladder, attempted, failed = _simulated(workload, reference)
    reference.outcomes.clear()
    timing = _timed_passes(workload, deployment, seed, seconds, reference,
                           trace=True)
    pass_log = timing.log

    queries = reference.stage_queries
    caches = _price_caches(workload, deployment)
    setup = setup_log.totals()
    spans = pass_log.totals()

    def count(name: str, log=spans) -> float:
        return log.get(name, {}).get("count", 0.0)

    def own_us(*names: str, log=spans) -> float:
        return sum(log.get(name, {}).get("self_us", 0.0) for name in names)

    def inclusive_ms(name: str) -> float:
        return setup.get(name, {}).get("total_us", 0.0) / 1e3

    engines = [engine for outcome in timing.traced.outcomes
               for engine in outcome.engines]
    engine_counts = {
        key: sum(getattr(engine.metrics, key) for engine in engines)
        for key in ("finish_events_pushed", "repricings", "prices_computed")}
    gets = count("pricing.get")
    (_, lo), (_, hi) = ladder[0], ladder[-1]
    untraced = _median_pass_ns(timing.untraced_ns)
    metrics = {
        "setup.compile_ms": (inclusive_ms("setup.compile"), "ms"),
        "setup.layers_compiled": (float(layers_compiled), "count"),
        "setup.profile_ms": (inclusive_ms("setup.profile"), "ms"),
        "setup.proxy_fit_ms": (inclusive_ms("setup.proxy_fit"), "ms"),
        # Self time: the profiles and proxy fits it triggers are its
        # only traced children.
        "setup.runtime_ms": (own_us("setup.runtime", log=setup) / 1e3, "ms"),
        "workloads.gen_us": (own_us("workloads.gen") / queries, "us"),
        "cluster.route_calls": (count("cluster.route") / queries, "count"),
        "cluster.route_us": (own_us("cluster.route") / queries, "us"),
        "cluster.driver_us": (own_us("cluster.serve_stream")
                              / queries, "us"),
        "cluster.advance_calls": ((count("engine.run_until")
                                   + count("engine.drain")) / queries,
                                  "count"),
        "engine.self_us": (own_us("engine.run", "engine.run_until",
                                  "engine.drain") / queries, "us"),
        "engine.finish_events_pushed": (
            engine_counts["finish_events_pushed"] / queries, "count"),
        "engine.repricings": (engine_counts["repricings"] / queries,
                              "count"),
        "engine.prices_computed": (engine_counts["prices_computed"]
                                   / queries, "count"),
        "engine.heap_peak": (float(max(engine.metrics.heap_peak
                                       for engine in engines)), "count"),
        "sched.schedule_calls": (count("sched.schedule") / queries, "count"),
        "sched.plan_calls": (count("sched.plan") / queries, "count"),
        "sched.self_us": (own_us("sched.schedule", "sched.plan") / queries,
                          "us"),
        "pricing.gets": (gets / queries, "count"),
        "pricing.hit_rate": (100.0 * (1.0 - pass_log.nones["pricing.get"]
                                      / gets) if gets else 0.0, "%"),
        "pricing.entries": (float(sum(len(cache) for cache in caches)),
                            "count"),
        "pricing.evictions": (float(sum(cache.evictions for cache in caches)),
                              "count"),
        "pricing.self_us": (own_us("pricing.get", "pricing.put") / queries,
                            "us"),
        "costmodel.execution_calls.sim": (
            count("costmodel.execution") / queries, "count"),
        "costmodel.self_us.sim": (own_us("costmodel.execution") / queries,
                                  "us"),
        "costmodel.execution_calls.setup": (
            count("costmodel.execution", log=setup), "count"),
        "costmodel.self_ms.setup": (
            own_us("costmodel.execution", log=setup) / 1e3, "ms"),
        "layers.signature_calls": (count("layers.signature") / queries,
                                   "count"),
        "layers.signature_us": (own_us("layers.signature") / queries, "us"),
        "other_us": (own_us("pass", "serving.run") / queries, "us"),
        "trace_overhead_pct": (100.0 * (_median_pass_ns(timing.traced_ns)
                                        - untraced) / untraced, "%"),
    }
    for name, unit in (("queue_wait_ms.p50", "ms"),
                       ("queue_wait_ms.p99", "ms"),
                       ("handoff_wait_ms.p99", "ms"),
                       ("conflict_rate", "ratio"),
                       ("grows_per_query", "count"),
                       ("core_util_pct", "%")):
        metrics[f"sim.{name}.lo"] = (lo[name], unit)
        metrics[f"sim.{name}.hi"] = (hi[name], unit)
    metrics["cluster.load_imbalance.lo"] = (lo["load_imbalance"], "ratio")
    metrics["cluster.load_imbalance.hi"] = (hi["load_imbalance"], "ratio")
    metrics.update(_ladder_summary(ladder, attempted, failed))
    _supported(metrics)

    stem = f"{workload.name}-seed{seed}"
    setup_log.write(TRACE_DIR / f"{stem}-setup.npz")
    pass_log.write(TRACE_DIR / f"{stem}-pass.npz")
    return Result(attempted=attempted, failed=failed, metrics=metrics,
                  ladder=ladder)


def _price_caches(workload: Workload, deployment: Deployment) -> list:
    """The block-pricing caches of the workload's node runtimes."""
    caches = []
    for device in workload.devices:
        cache = deployment.stack.runtime_for(device).price_cache
        if all(cache is not seen for seen in caches):
            caches.append(cache)
    return caches


def print_table(workload: Workload, result: Result) -> None:
    """Human-readable report: the ladder, then every metric with its unit."""
    print(f"workload {workload.name}: {len(workload.ladder)} rates, "
          f"{result.attempted} requests, {result.failed} failed")
    print(f"{'rate':>8} {'requests':>8} {'sat%':>7} {'p50 ms':>9} "
          f"{'p99 ms':>9} {'backlog':>7}")
    for rung, stats in result.ladder:
        print(f"{rung.qps:8g} {rung.requests:8d} {stats['qos_sat_pct']:7.2f} "
              f"{stats['lat_p50_ms']:9.3f} {stats['lat_p99_ms']:9.3f} "
              f"{'grows' if stats['backlog_grows'] else 'stable':>7}")
    for name, (value, unit) in {**result.metrics, **result.extra}.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
