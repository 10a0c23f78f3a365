"""Quickstart: serve a multi-tenant query stream with VELTAIR.

Builds the serving stack (offline multi-version compilation + profiling +
proxy fitting), generates a Poisson stream over the MLPerf-style light
mix, and compares the full VELTAIR scheduler against the Planaria-style
layer-wise baseline.

Run:  python examples/quickstart.py
(REPRO_EXAMPLE_TRIALS / REPRO_EXAMPLE_QUERIES shrink it for CI.)
"""

import os

from repro.serving import LIGHT_MIX, ServingStack, scenario_queries
from repro.serving.metrics import summarize
from repro.telemetry import save_env_trace, tracer_from_env

TRIALS = int(os.environ.get("REPRO_EXAMPLE_TRIALS", "192"))
QUERIES = int(os.environ.get("REPRO_EXAMPLE_QUERIES", "300"))


def main() -> None:
    print("Compiling the light-mix models (multi-version, Alg. 1)...")
    stack = ServingStack(
        models=["efficientnet_b0", "mobilenet_v2", "tiny_yolov2"],
        trials=TRIALS,
    )
    for name, compiled in stack.compiled.items():
        versions = compiled.version_counts
        print(f"  {name:18s} {len(compiled):3d} layers, "
              f"{sum(versions)} compiled versions "
              f"(max {max(versions)}/layer)")

    qps = 220.0
    print(f"\nServing {QUERIES} queries at {qps:.0f} QPS "
          f"(Poisson arrivals, QoS per MLPerf Table 2)...")
    # Set REPRO_TRACE_DIR to record the veltair_full run's telemetry
    # (per-query spans, block spans, scheduler decisions) — free when
    # unset, and results are bit-identical either way.
    tracer = tracer_from_env(run_id="quickstart",
                             meta={"qps": qps, "queries": QUERIES})
    for policy in ("layerwise", "veltair_full"):
        queries = scenario_queries(stack.compiled, "poisson", qps, QUERIES,
                                   seed=42, spec=LIGHT_MIX)
        completed, engine = stack.run(
            policy, queries,
            tracer=tracer if policy == "veltair_full" else None)
        report = summarize(completed, engine.metrics, qps)
        print(f"  {policy:14s} "
              f"QoS satisfaction={report.satisfaction_rate:.1%}  "
              f"avg latency={report.average_latency_s * 1e3:.2f} ms  "
              f"conflicts={report.conflict_rate:.1%}")

    print("\nVELTAIR's adaptive blocks + interference-matched code "
          "versions keep QoS where the fixed baseline collapses.")
    trace_path = save_env_trace(tracer)
    if trace_path is not None:
        print(f"trace written to {trace_path} — inspect with "
              f"`python -m repro.telemetry summarize {trace_path}`")


if __name__ == "__main__":
    main()
