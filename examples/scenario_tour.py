"""Scenario tour: trace-driven load shapes beyond stationary Poisson.

Serves one workload mix under every built-in arrival shape (Poisson,
MMPP bursty, diurnal ramp, flash crowd, tenant churn), then records a
bursty stream to a JSON trace, reloads it, and replays it bit-identically
into both a single node and a 2-node fleet.

Run:  python examples/scenario_tour.py
(REPRO_EXAMPLE_TRIALS / REPRO_EXAMPLE_QUERIES shrink it for CI.)
"""

import os
import tempfile
from pathlib import Path

from repro.cluster import Cluster, homogeneous
from repro.serving import ServingStack, WorkloadSpec
from repro.serving.metrics import summarize
from repro.serving.workload import scenario_queries
from repro.workloads import ArrivalTrace, get_scenario, record_trace

TRIALS = int(os.environ.get("REPRO_EXAMPLE_TRIALS", "192"))
QUERIES = int(os.environ.get("REPRO_EXAMPLE_QUERIES", "200"))

SHAPES = ("poisson", "bursty", "diurnal", "flash_crowd", "tenant_churn")


def main() -> None:
    print("Compiling a two-model stack...")
    stack = ServingStack(models=["mobilenet_v2", "googlenet"],
                         trials=TRIALS)
    spec = WorkloadSpec(name="pair", entries=(("mobilenet_v2", 2.0),
                                              ("googlenet", 1.0)))
    qps = 150.0

    print(f"\nServing {QUERIES} queries at {qps:.0f} *mean* QPS under "
          "each arrival shape (veltair_full):")
    print(f"  {'scenario':14s} {'sat':>7s} {'avg lat':>9s} {'p99':>9s}")
    node = Cluster(stack, homogeneous(1), router="round_robin")
    for name in SHAPES:
        report = node.report(spec, qps, QUERIES, seed=42, scenario=name)
        print(f"  {name:14s} {report.satisfaction_rate:7.1%} "
              f"{report.average_latency_s * 1e3:7.2f}ms "
              f"{report.p99_latency_s * 1e3:7.2f}ms")
    print("Same mean load, very different QoS: bursts and flash crowds "
          "are what capacity planning is about.")

    # -- record -> save -> load -> replay -------------------------------
    print("\nRecording a bursty stream to a JSON trace...")
    queries = scenario_queries(stack.compiled, get_scenario("bursty"),
                               qps, QUERIES, seed=42, spec=spec)
    trace = record_trace(queries, "tour-burst",
                         meta={"scenario": "bursty", "qps": qps})
    with tempfile.TemporaryDirectory() as tmp:
        path = trace.save(Path(tmp) / "tour-burst.json")
        size = path.stat().st_size
        loaded = ArrivalTrace.load(path)
    print(f"  {len(trace)} arrivals over {trace.span_s:.2f}s "
          f"({size} bytes); replays bit-identically:")

    completed, engine = stack.run("veltair_full",
                                  loaded.replay(stack.compiled))
    single = summarize(completed, engine.metrics, qps)
    print(f"  single node : sat={single.satisfaction_rate:.1%} "
          f"avg={single.average_latency_s * 1e3:.2f}ms")

    fleet = Cluster(stack, homogeneous(2), router="pressure_aware")
    report = fleet.serve(loaded.replay(stack.compiled), offered_qps=qps)
    print(f"  2-node fleet: sat={report.satisfaction_rate:.1%} "
          f"goodput={report.goodput_qps:.0f}/s "
          f"imbalance={report.load_imbalance:.2f}")

    print("\nThe same trace drives any engine or fleet — that is what "
          "makes results comparable across schedulers, routers, and "
          "commits (see `python -m repro.bench`).")


if __name__ == "__main__":
    main()
