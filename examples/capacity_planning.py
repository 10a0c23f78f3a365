"""Capacity planning: how many QPS can this box serve per policy?

An operator's view of the paper's Fig. 12 metric — sweep the offered
load on the medium mix and find each policy's maximal QPS at a 95% QoS
satisfaction SLA.

Run:  python examples/capacity_planning.py
(REPRO_EXAMPLE_TRIALS / REPRO_EXAMPLE_QUERIES shrink it for CI.)
"""

import os

from repro.cluster import cluster_capacity, homogeneous
from repro.serving import MEDIUM_MIX, ServingStack

TRIALS = int(os.environ.get("REPRO_EXAMPLE_TRIALS", "192"))
QUERIES = int(os.environ.get("REPRO_EXAMPLE_QUERIES", "150"))


def main() -> None:
    print("Compiling the medium-mix models (ResNet-50, GoogLeNet)...")
    stack = ServingStack(models=["resnet50", "googlenet"], trials=TRIALS)

    print(f"Workload: {MEDIUM_MIX.name} mix, Poisson arrivals, "
          f"QoS 15 ms, SLA = 95% in-deadline\n")
    results = {}
    for policy in ("prema", "model_fcfs", "layerwise", "block11",
                   "veltair_as", "veltair_full"):
        # One box is a one-node fleet under round-robin routing.
        result = cluster_capacity(stack, homogeneous(1, policy=policy),
                                  MEDIUM_MIX, count=QUERIES,
                                  router="round_robin", tolerance_qps=20,
                                  low_qps=10, high_qps=600, seed=3)
        results[policy] = result
        if not result.passed:
            print(f"  {policy:14s} misses the SLA even at the "
                  f"{result.qps:.0f} QPS floor")
            continue
        node = result.report.nodes[0].report
        print(f"  {policy:14s} capacity = {result.qps:5.0f} QPS   "
              f"(latency at capacity: "
              f"{node.average_latency_s * 1e3:6.2f} ms, "
              f"avg cores {node.average_cores_used:4.1f})")

    baseline = results["layerwise"].qps
    best = results["veltair_full"].qps
    print(f"\nVELTAIR serves {best / max(baseline, 1):.2f}x the "
          f"Planaria-style baseline on this box before violating the SLA.")


if __name__ == "__main__":
    main()
