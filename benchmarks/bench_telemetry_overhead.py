"""Telemetry overhead gauge: tracing must be observational and ~free.

Runs the production-scale mixed workload (600 QPS on
:data:`PRODUCTION_SERVER_256`) twice — tracer attached and tracer
``None`` — and enforces the telemetry layer's two contracts:

* **Bit-identity** — the ``ServingReport`` (and a 2-node fleet's
  ``ClusterReport``) must be *equal*, not merely close, with tracing on
  vs off.  The tracer observes; it never perturbs a decision.
* **Null-tracer cost <= 2%** — with ``tracer=None`` the only residue on
  the hot path is ``if tracer is not None`` guards.  The gauge counts
  the guard evaluations the run actually performed (from engine
  accounting: dispatches, block starts/finishes, conflicts, grows,
  completions, arrivals, repricing rounds), microbenchmarks the cost of
  one guard, and bounds the induced overhead against the untraced wall
  clock.  A direct A/B against a guard-free build is impossible inside
  one tree, so the bound is constructed, not sampled — and it lands
  orders of magnitude under the 2% bar.

The traced run's records additionally feed the exactness check the
trace CLI advertises: ``summarize_trace`` over the spans alone must
reproduce ``ServingReport.average_latency_s`` bit-for-bit, the span
nesting must validate clean, and the Chrome export must pass the
structural validator.

Run standalone (the CI smoke test uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py --quick

``--json DIR`` additionally writes the machine-readable
``BENCH_telemetry_overhead.json`` the perf ratchet compares (see
``python -m repro.bench``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from repro.cluster import Cluster, homogeneous
from repro.hardware.platform import PRODUCTION_SERVER_256
from repro.runtime.engine import Engine
from repro.runtime.pricing import PricingCache
from repro.serving.metrics import ServingReport, summarize
from repro.serving.server import ServingStack
from repro.serving.workload import WorkloadSpec, scenario_queries
from repro.telemetry import (
    Tracer,
    summarize_trace,
    to_chrome,
    validate_chrome,
    validate_trace,
)

FULL_MODELS = ("mobilenet_v2", "efficientnet_b0", "tiny_yolov2",
               "googlenet", "resnet50")
QUICK_MODELS = ("mobilenet_v2", "efficientnet_b0", "tiny_yolov2")

#: The acceptance bar: constructed null-tracer overhead bound, percent.
OVERHEAD_BAR_PCT = 2.0


@dataclasses.dataclass
class ModeResult:
    report: ServingReport
    wall_s: float
    engine: Engine
    tracer: Tracer | None


def _run_mode(stack: ServingStack, spec: WorkloadSpec, qps: float,
              count: int, seed: int, cache: PricingCache,
              tracer: Tracer | None) -> ModeResult:
    queries = scenario_queries(stack.compiled, "poisson", qps, count,
                               seed=seed, spec=spec)
    engine = Engine(stack.cost_model, price_cache=cache,
                    tracer=(tracer.bind("node0")
                            if tracer is not None else None))
    scheduler = stack.make_scheduler("veltair_full")
    start = time.perf_counter()
    completed = engine.run(queries, scheduler)
    wall = time.perf_counter() - start
    return ModeResult(report=summarize(completed, engine.metrics, qps),
                      wall_s=wall, engine=engine, tracer=tracer)


def _guard_cost_s(samples: int = 500_000) -> float:
    """Seconds per ``if self.tracer is not None`` hot-path guard.

    Measured on a plain attribute holder inside a Python loop, so the
    figure *includes* the loop overhead — a deliberate overestimate;
    the bound it feeds stays conservative.
    """

    class Holder:
        __slots__ = ("tracer",)

        def __init__(self) -> None:
            self.tracer = None

    holder = Holder()
    hits = 0
    start = time.perf_counter()
    for _ in range(samples):
        if holder.tracer is not None:
            hits += 1  # pragma: no cover - tracer is always None here
    elapsed = time.perf_counter() - start
    assert hits == 0
    return elapsed / samples


def _guard_count(engine: Engine, arrivals: int) -> int:
    """Guard evaluations an untraced run performed, from accounting.

    Per block: the scheduler dispatch guard, the ``start_block``
    conflict check (conflicting blocks only), and the finish-time span
    guard.  Per query: the completion-span guard and the arrival-event
    guard.  Per repricing round that moved the quantised pressure: the
    engine-counter guard (``pressure_epoch`` upper-bounds it).  Grows
    add one each.
    """
    m = engine.metrics
    return (3 * m.blocks_started + m.conflicts + m.grows
            + 2 * arrivals + engine.pressure_epoch)


def reports_match(a: ServingReport, b: ServingReport,
                  tolerance: float = 0.0) -> bool:
    for field in dataclasses.fields(a):
        left, right = getattr(a, field.name), getattr(b, field.name)
        if isinstance(left, float):
            if abs(left - right) > tolerance:
                return False
        elif left != right:
            return False
    return True


def _fleet_pair(stack: ServingStack, spec: WorkloadSpec, qps: float,
                count: int, seed: int):
    """Serve the same stream through a 2-node fleet, traced and not."""

    def fresh_stream():
        return scenario_queries(stack.compiled, "poisson", qps, count,
                                seed=seed, spec=spec)

    fleet = homogeneous(2)
    plain = Cluster(stack, fleet).serve(fresh_stream(), offered_qps=qps)
    tracer = Tracer(run_id="telemetry-overhead-fleet",
                    meta={"qps": qps, "count": count, "seed": seed})
    traced = Cluster(stack, fleet).serve(fresh_stream(), offered_qps=qps,
                                         tracer=tracer)
    return plain, traced, tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small model set and stream (CI smoke)")
    parser.add_argument("--qps", type=float, default=600.0)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--no-check", action="store_true",
                        help="report without enforcing acceptance bars")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="write BENCH_telemetry_overhead.json to DIR")
    args = parser.parse_args()

    models = QUICK_MODELS if args.quick else FULL_MODELS
    count = args.queries or (150 if args.quick else 400)
    trials = 64 if args.quick else 96

    print(f"compiling stack ({len(models)} models, trials={trials})...")
    stack = ServingStack(cpu=PRODUCTION_SERVER_256, models=list(models),
                         trials=trials, proxy_scenarios=60, seed=11)
    spec = WorkloadSpec(
        name="mix", entries=tuple((name, 1.0) for name in models))

    # Single node, tracing off vs on — same stream, same shared cache.
    # One untimed warm-up serve fills the cache first: timing the
    # untraced run cold would charge it every pricing miss and inflate
    # the wall the overhead bound divides by.
    cache = PricingCache()
    _run_mode(stack, spec, args.qps, count, args.seed, cache, None)
    off = _run_mode(stack, spec, args.qps, count, args.seed, cache, None)
    tracer = Tracer(run_id="telemetry-overhead",
                    meta={"qps": args.qps, "count": count,
                          "seed": args.seed})
    on = _run_mode(stack, spec, args.qps, count, args.seed, cache, tracer)

    identical = reports_match(off.report, on.report)
    trace = tracer.trace()
    summary = summarize_trace(trace)
    summarize_exact = (
        summary.completed == on.report.completed
        and summary.satisfied == round(on.report.satisfaction_rate
                                       * on.report.completed)
        and summary.average_latency_s == on.report.average_latency_s)
    nesting_errors = validate_trace(trace)
    chrome_errors = validate_chrome(to_chrome(trace))
    wellformed = not nesting_errors and not chrome_errors

    # Constructed null-tracer overhead bound.
    guards = _guard_count(off.engine, count)
    guard_s = _guard_cost_s()
    overhead_pct = 100.0 * guards * guard_s / off.wall_s

    # Fleet pair: router scores, admission, rollup — still identical.
    fleet_off, fleet_on, fleet_tracer = _fleet_pair(
        stack, spec, args.qps, count, args.seed + 1)
    fleet_identical = fleet_off == fleet_on
    fleet_records = len(fleet_tracer.records)

    print(f"\nsingle node @ {args.qps:.0f} QPS, {count} queries")
    print(f"  untraced wall {off.wall_s * 1e3:8.1f}ms   "
          f"traced wall {on.wall_s * 1e3:8.1f}ms")
    print(f"  reports identical on/off: {identical}")
    print(f"  trace: {len(tracer.records)} records, "
          f"{summary.completed} query spans")
    print(f"  summarize reproduces report exactly: {summarize_exact}")
    print(f"  nesting errors: {len(nesting_errors)}, "
          f"chrome errors: {len(chrome_errors)}")
    print(f"  guard bound: {guards} guards x {guard_s * 1e9:.1f}ns "
          f"/ {off.wall_s * 1e3:.1f}ms = {overhead_pct:.4f}% "
          f"(bar {OVERHEAD_BAR_PCT:.1f}%)")
    print(f"2-node fleet: reports identical on/off: {fleet_identical} "
          f"({fleet_records} records)")

    failures = []
    if not identical:
        failures.append("single-node report differs with tracing on")
    if not fleet_identical:
        failures.append("fleet report differs with tracing on")
    if not summarize_exact:
        failures.append("summarize_trace does not reproduce the report")
    if not wellformed:
        failures.append(f"trace invalid: {nesting_errors[:3]} "
                        f"{chrome_errors[:3]}")
    if overhead_pct > OVERHEAD_BAR_PCT:
        failures.append(f"null-tracer bound {overhead_pct:.3f}% exceeds "
                        f"{OVERHEAD_BAR_PCT}%")

    metrics = {
        "reports_identical_on_off": 1.0 if identical else 0.0,
        "cluster_identical_on_off": 1.0 if fleet_identical else 0.0,
        "summarize_matches_report": 1.0 if summarize_exact else 0.0,
        "trace_wellformed": 1.0 if wellformed else 0.0,
        "null_overhead_le_2pct": (
            1.0 if overhead_pct <= OVERHEAD_BAR_PCT else 0.0),
        "null_overhead_pct": overhead_pct,
        "records_per_query": len(tracer.records) / count,
        "guard_evaluations": float(guards),
    }
    if args.json:
        from repro.bench.results import BenchResult, write_result
        result = BenchResult(
            name="telemetry_overhead",
            title="Telemetry: null-tracer overhead bound + tracing "
                  "on/off bit-identity",
            metrics=metrics,
            knobs={"quick": args.quick, "qps": args.qps,
                   "queries": count, "seed": args.seed,
                   "models": list(models)},
            info={"failures": failures,
                  "untraced_wall_s": off.wall_s,
                  "traced_wall_s": on.wall_s,
                  "guard_cost_ns": guard_s * 1e9,
                  "single_records": len(tracer.records),
                  "fleet_records": fleet_records},
            seed=args.seed)
        path = write_result(result, args.json)
        print(f"wrote {path}")

    if failures and not args.no_check:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("acceptance checks passed" if not failures
          else "failures recorded (--no-check)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
