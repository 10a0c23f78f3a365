"""Request-model tour: pipelines, closed-loop tenants, dynamic batching.

Three short acts over one compiled stack:

1. The `vision_pipeline` scenario (detector -> classifier) served
   through a 2-node fleet: stage 1 is offered the instant stage 0
   completes, per-stage latency shows where the chain's budget goes,
   and under an aggressive admission policy a shed stage fails its
   whole pipeline.
2. The `agent_loop` closed-loop scenario: six tenants each keep two
   requests in flight, issuing the next at each completion — so when
   admission sheds, the *offered* rate drops instead of a queue
   exploding (the feedback open-loop traces cannot express).
3. Engine-side dynamic batching on an accelerator node: same-model
   arrivals fuse into one block stream (`BatchPolicy`), trading a
   bounded wait plus longer per-request latency for strictly cheaper
   core-seconds per query (shared weight traffic, one launch stream
   instead of B) — so past the unbatched capacity knee, where the
   plain engine's queue grows without bound and QoS collapses, the
   batched engine keeps satisfying every request.  (Needs the full
   default query count to reach steady state; shrunk CI runs only
   smoke the mechanics.)

Run:  python examples/pipeline_serving.py
(REPRO_EXAMPLE_TRIALS / REPRO_EXAMPLE_QUERIES shrink it for CI.)
"""

import os

from repro.cluster import AdmissionPolicy, Cluster, homogeneous
from repro.hardware.platform import DATACENTER_ACCEL_80
from repro.runtime.engine import BatchPolicy, Engine
from repro.serving import ServingStack, WorkloadSpec
from repro.serving.workload import scenario_queries
from repro.workloads import get_scenario

TRIALS = int(os.environ.get("REPRO_EXAMPLE_TRIALS", "192"))
COUNT = int(os.environ.get("REPRO_EXAMPLE_QUERIES", "60"))


def main() -> None:
    print("Compiling the model set once (shared across all acts)...")
    stack = ServingStack(
        models=["ssd_resnet34", "resnet50", "mobilenet_v2", "googlenet"],
        trials=TRIALS,
    )

    # Act 1: detector -> classifier pipelines through a small fleet.
    scenario = get_scenario("vision_pipeline")
    stages = " -> ".join(scenario.pipeline.stages)
    print(f"\n[1] {scenario.name}: {stages}, {COUNT} chains at 30 QPS")
    cluster = Cluster(stack, homogeneous(2))
    stream = scenario.stream(stack.compiled, qps=30.0, count=COUNT, seed=7)
    report = cluster.serve_stream(stream, offered_qps=30.0)
    rollup = report.pipelines
    print(f"    chains: {rollup.offered} offered, "
          f"{rollup.completed} completed, "
          f"sat={rollup.satisfaction_rate:.1%}, "
          f"p99={rollup.p99_latency_s * 1e3:.1f} ms")
    for stage in rollup.stages:
        print(f"    stage {stage.stage} ({stage.model}): "
              f"avg={stage.average_latency_s * 1e3:.1f} ms  "
              f"p99={stage.p99_latency_s * 1e3:.1f} ms  "
              f"shed={stage.shed}")

    # A tight admission bound: shed stages kill their whole chain.
    guarded = Cluster(stack, homogeneous(2),
                      admission=AdmissionPolicy(
                          max_outstanding_per_core=0.05, max_defers=1))
    stream = scenario.stream(stack.compiled, qps=120.0, count=COUNT, seed=7)
    report = guarded.serve_stream(stream, offered_qps=120.0)
    rollup = report.pipelines
    print(f"    overloaded + admission: {rollup.failed} chains failed by "
          f"a shed stage (sat={rollup.satisfaction_rate:.1%})")

    # Act 2: closed-loop tenants — shedding reduces offered load.
    scenario = get_scenario("agent_loop")
    loop = scenario.closed_loop
    print(f"\n[2] {scenario.name}: {loop.tenants} tenants x "
          f"concurrency {loop.concurrency}, {COUNT} requests total")
    report = guarded.serve_stream(
        scenario.stream(stack.compiled, qps=0.0, count=COUNT, seed=7))
    print(f"    offered={report.offered} admitted={report.admitted} "
          f"shed={report.shed} sat={report.satisfaction_rate:.1%}")
    for session in report.sessions[:3]:
        print(f"    session {session.session}: issued={session.issued} "
              f"satisfied={session.satisfied} shed={session.shed} "
              f"avg={session.average_latency_s * 1e3:.2f} ms")
    print("    (every shed request still hands control back: the tenant "
          "issues its next — offered load adapts)")

    # Act 3: dynamic batching past the capacity knee, on an accelerator.
    # Throughput-oriented serving: QoS relaxed 8x, offered load above
    # the unbatched engine's knee — plain queues grow without bound
    # while fused batch-8 blocks (cheaper core-seconds per query) keep
    # up.  Small CI runs never reach steady state; use the defaults to
    # see the separation.
    runtime = stack.runtime_for(DATACENTER_ACCEL_80)
    spec = WorkloadSpec(name="mono", entries=(("mobilenet_v2", 1.0),))
    batch_count = COUNT * 40
    print(f"\n[3] dynamic batching: {batch_count} mobilenet_v2 arrivals "
          f"at 3600 QPS on one {DATACENTER_ACCEL_80.name} node, QoS x8")

    def accel_serve(batching: BatchPolicy | None):
        queries = scenario_queries(stack.compiled, "poisson", 3600.0,
                                   batch_count, seed=7, spec=spec)
        for query in queries:
            query.qos_s *= 8.0
        engine = Engine(runtime.cost_model,
                        price_cache=runtime.price_cache,
                        batching=batching)
        scheduler = stack.make_scheduler("veltair_full", runtime=runtime)
        return engine.run(queries, scheduler)

    plain = accel_serve(None)
    fused = accel_serve(BatchPolicy(max_batch=8, max_wait_s=0.002))
    for label, done in (("unbatched", plain),
                        ("batched (max_batch=8, wait<=2ms)", fused)):
        sat = sum(q.satisfied for q in done)
        window = max(q.finished_s for q in done)
        print(f"    {label}: {sat}/{len(done)} within QoS, "
              f"goodput {sat / window:.0f}/s")


if __name__ == "__main__":
    main()
