"""Closed-loop and batching benchmark: the request model's two claims.

Acceptance protocol for the generalized request model
(``repro.workloads.requests`` + engine-side ``BatchPolicy``):

**Feedback (closed loop).**  A closed-loop tenant population served
through an admission controller that sheds must exhibit feedback: every
shed request still hands control back to its tenant (offered == admitted
+ shed, nothing vanishes), and the goodput achieved *under shedding*
stays strictly below the open-loop offered rate — the rate the same
tenant population sustains when nothing is shed.  An open-loop trace
has no such coupling: shed queries just disappear from a pre-drawn
stream.  The guarded serve is also run twice and must be bit-identical
(the closed-loop event plumbing stays deterministic).

**Batching (throughput-for-latency).**  On an accelerator node past the
unbatched engine's capacity knee, with QoS slack enough to absorb fused
service times (8x), dynamic batching must deliver **>= 1.3x goodput at
an equal-or-better p99** than the plain engine at the same offered
load.  The win is structural: a batch-B block pays one launch stream
and shares weight traffic across B members, so its core-seconds per
query are strictly cheaper — past the plain knee the unbatched queue
grows without bound while the batched engine keeps satisfying every
request.  (Below the knee batching only adds wait; this benchmark pins
the regime where it pays.)

Run standalone (the CI perf ratchet uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_closed_loop.py --quick

``--json DIR`` additionally writes the machine-readable
``BENCH_closed_loop.json`` the perf ratchet compares (see
``python -m repro.bench``).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.cluster import AdmissionPolicy, Cluster, homogeneous
from repro.hardware.platform import DATACENTER_ACCEL_80
from repro.runtime.engine import BatchPolicy, Engine
from repro.serving.server import ServingStack
from repro.serving.workload import WorkloadSpec, scenario_queries
from repro.workloads import ClosedLoopSpec, ScenarioSpec

MODELS = ("mobilenet_v2", "googlenet")

#: Acceptance bars (see the module docstring).
BATCH_RATIO_FLOOR = 1.3

#: The closed-loop population: six tenants, two requests in flight
#: each, a short think time between completion and the next issue.
CLOSED_LOOP = ClosedLoopSpec(tenants=6, concurrency=2, think_s=0.005)

#: The batching act's regime: a mono-model (maximally fusable) stream
#: on the accelerator, offered past the unbatched knee, QoS relaxed 8x.
BATCH_QPS = 3600.0
BATCH_QOS_SCALE = 8.0
BATCH_POLICY = BatchPolicy(max_batch=8, max_wait_s=0.002)


def closed_loop_scenario(spec: WorkloadSpec) -> ScenarioSpec:
    return ScenarioSpec(name="closed-quick", workload=spec,
                        closed_loop=CLOSED_LOOP)


def run_closed_loop(stack: ServingStack, count: int,
                    seed: int) -> tuple[dict[str, float], list[str]]:
    """The feedback act: free-running vs guarded closed-loop serves."""
    spec = WorkloadSpec(name="quick-mix", entries=(("mobilenet_v2", 2.0),
                                                   ("googlenet", 1.0)))
    scenario = closed_loop_scenario(spec)

    def serve(cluster: Cluster):
        stream = scenario.stream(stack.compiled, qps=0.0, count=count,
                                 seed=seed)
        return cluster.serve_stream(stream)

    free = serve(Cluster(stack, homogeneous(1)))
    guarded_cluster = Cluster(
        stack, homogeneous(1),
        admission=AdmissionPolicy(max_outstanding_per_core=0.05,
                                  max_defers=1))
    guarded = serve(guarded_cluster)
    again = serve(guarded_cluster)

    open_rate = free.offered / free.span_s if free.span_s > 0 else 0.0
    goodput = guarded.goodput_qps
    totals_ok = (guarded.offered == guarded.admitted + guarded.shed
                 and guarded.offered == count
                 and sum(s.issued for s in guarded.sessions) == count)
    shed_ok = guarded.shed > 0
    below_ok = shed_ok and goodput < open_rate
    repeat_ok = (
        guarded.satisfied == again.satisfied
        and guarded.shed == again.shed
        and guarded.average_latency_s == again.average_latency_s
        and [(s.session, s.issued, s.satisfied, s.shed)
             for s in guarded.sessions]
        == [(s.session, s.issued, s.satisfied, s.shed)
            for s in again.sessions])

    metrics = {
        "closed_open_rate_qps": open_rate,
        "closed_free_sat": free.satisfaction_rate,
        "closed_shed": float(guarded.shed),
        "closed_shed_goodput_qps": goodput,
        "closed_shed_sat": guarded.satisfaction_rate,
        "closed_sessions": float(len(guarded.sessions)),
        "closed_totals_ok": 1.0 if totals_ok else 0.0,
        "closed_shed_occurred_ok": 1.0 if shed_ok else 0.0,
        "closed_below_open_ok": 1.0 if below_ok else 0.0,
        "closed_repeat_identical_ok": 1.0 if repeat_ok else 0.0,
    }
    failures = []
    if not totals_ok:
        failures.append(
            f"closed-loop totals do not reconcile: offered "
            f"{guarded.offered} != admitted {guarded.admitted} + shed "
            f"{guarded.shed} (count {count})")
    if not shed_ok:
        failures.append("guarded closed-loop serve shed nothing; the "
                        "feedback regime was never entered")
    if shed_ok and not below_ok:
        failures.append(
            f"goodput under shedding {goodput:.1f}/s is not strictly "
            f"below the open-loop offered rate {open_rate:.1f}/s")
    if not repeat_ok:
        failures.append("guarded closed-loop serve is not deterministic "
                        "across repeats")
    return metrics, failures


def run_batching(stack: ServingStack, count: int,
                 seed: int) -> tuple[dict[str, float], list[str]]:
    """The batching act: plain vs fused engine past the plain knee."""
    runtime = stack.runtime_for(DATACENTER_ACCEL_80)
    spec = WorkloadSpec(name="mono", entries=(("mobilenet_v2", 1.0),))

    def serve(batching: BatchPolicy | None):
        queries = scenario_queries(stack.compiled, "poisson", BATCH_QPS,
                                   count, seed=seed, spec=spec)
        for query in queries:
            query.qos_s *= BATCH_QOS_SCALE
        engine = Engine(runtime.cost_model,
                        price_cache=runtime.price_cache,
                        batching=batching)
        scheduler = stack.make_scheduler("veltair_full", runtime=runtime)
        done = engine.run(queries, scheduler)
        sat = sum(q.satisfied for q in done)
        window = max(q.finished_s for q in done)
        latencies = sorted(q.finished_s - q.arrival_s for q in done)
        p99 = latencies[min(len(latencies) - 1,
                            int(len(latencies) * 0.99))]
        return sat, sat / window, p99

    plain_sat, plain_goodput, plain_p99 = serve(None)
    fused_sat, fused_goodput, fused_p99 = serve(BATCH_POLICY)
    ratio = fused_goodput / plain_goodput if plain_goodput > 0 else 0.0
    ratio_ok = ratio >= BATCH_RATIO_FLOOR
    p99_ok = fused_p99 <= plain_p99

    metrics = {
        "batch_plain_sat": float(plain_sat),
        "batch_fused_sat": float(fused_sat),
        "batch_plain_goodput_qps": plain_goodput,
        "batch_fused_goodput_qps": fused_goodput,
        "batch_plain_p99_ms": plain_p99 * 1e3,
        "batch_fused_p99_ms": fused_p99 * 1e3,
        "batch_goodput_ratio": ratio,
        "batch_ratio_ok": 1.0 if ratio_ok else 0.0,
        "batch_p99_ok": 1.0 if p99_ok else 0.0,
    }
    failures = []
    if not ratio_ok:
        failures.append(
            f"batched goodput ratio {ratio:.2f} below the "
            f"{BATCH_RATIO_FLOOR}x floor "
            f"({fused_goodput:.0f}/s vs {plain_goodput:.0f}/s)")
    if not p99_ok:
        failures.append(
            f"batched p99 {fused_p99 * 1e3:.1f}ms exceeds plain p99 "
            f"{plain_p99 * 1e3:.1f}ms — not an equal-QoS comparison")
    return metrics, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small stack / stream (the CI ratchet config)")
    parser.add_argument("--queries", type=int, default=None,
                        help="closed-loop requests per serve")
    parser.add_argument("--batch-queries", type=int, default=None,
                        help="arrivals per batching-act serve")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--no-check", action="store_true",
                        help="report only; skip the acceptance assertions")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="also write BENCH_closed_loop.json into DIR")
    args = parser.parse_args(argv)

    count = (args.queries if args.queries is not None
             else (600 if args.quick else 1200))
    batch_count = (args.batch_queries if args.batch_queries is not None
                   else (2400 if args.quick else 4800))
    if count <= 0 or batch_count <= 0:
        parser.error("query counts must be positive")
    trials = 64 if args.quick else 96

    t0 = time.perf_counter()
    stack = ServingStack(models=list(MODELS), trials=trials,
                         proxy_scenarios=60, seed=11)
    stack.ensure_compiled()
    print(f"stack: {len(MODELS)} models compiled in "
          f"{time.perf_counter() - t0:.1f}s")
    print(f"closed loop: {CLOSED_LOOP.tenants} tenants x concurrency "
          f"{CLOSED_LOOP.concurrency}, think "
          f"{CLOSED_LOOP.think_s * 1e3:.0f}ms, {count} requests")
    print(f"batching: mono mobilenet_v2 at {BATCH_QPS:.0f} QPS on "
          f"{DATACENTER_ACCEL_80.name}, QoS x{BATCH_QOS_SCALE:.0f}, "
          f"{batch_count} arrivals, max_batch={BATCH_POLICY.max_batch}, "
          f"wait<={BATCH_POLICY.max_wait_s * 1e3:.0f}ms\n")

    t0 = time.perf_counter()
    closed_metrics, failures = run_closed_loop(stack, count, args.seed)
    batch_metrics, batch_failures = run_batching(stack, batch_count,
                                                 args.seed)
    failures.extend(batch_failures)
    wall = time.perf_counter() - t0
    metrics = {**closed_metrics, **batch_metrics}

    lines = [
        f"closed loop: open-rate {metrics['closed_open_rate_qps']:8.1f}/s"
        f"  (free sat {metrics['closed_free_sat']:6.1%})",
        f"  guarded:   goodput   {metrics['closed_shed_goodput_qps']:8.1f}"
        f"/s  shed {metrics['closed_shed']:.0f}  sat "
        f"{metrics['closed_shed_sat']:6.1%}",
        f"batching:    plain     {metrics['batch_plain_goodput_qps']:8.1f}"
        f"/s  p99 {metrics['batch_plain_p99_ms']:6.1f}ms  sat "
        f"{metrics['batch_plain_sat']:.0f}/{batch_count}",
        f"  fused:     goodput   {metrics['batch_fused_goodput_qps']:8.1f}"
        f"/s  p99 {metrics['batch_fused_p99_ms']:6.1f}ms  sat "
        f"{metrics['batch_fused_sat']:.0f}/{batch_count}  "
        f"ratio {metrics['batch_goodput_ratio']:.2f}x",
    ]
    print("\n".join(lines))
    print(f"\n({wall:.1f}s for both acts)")

    if args.json is not None:
        from repro.bench.results import BenchResult, write_result
        title = "Closed loop + batching: request-model acceptance"
        write_result(BenchResult(
            name="closed_loop", title=title, metrics=metrics,
            knobs={"quick": args.quick, "queries": count,
                   "batch_queries": batch_count, "trials": trials,
                   "models": list(MODELS),
                   "tenants": CLOSED_LOOP.tenants,
                   "concurrency": CLOSED_LOOP.concurrency,
                   "batch_qps": BATCH_QPS,
                   "max_batch": BATCH_POLICY.max_batch},
            info={"failures": list(failures)},
            tables={title: "\n".join(lines)},
            seed=args.seed), args.json)

    if failures and not args.no_check:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: acceptance checks passed" if not args.no_check
          else "\ndone (checks skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
