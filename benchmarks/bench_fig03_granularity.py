"""Paper Fig. 3 — scheduling granularity under rising load.

A uniform ResNet-50 stream served at increasing QPS by model-wise,
layer-wise, and fixed-block scheduling.  Fig. 3a reports QoS satisfaction,
Fig. 3b average query latency.
"""

from conftest import node_reports, record


_POLICIES = ("model_fcfs", "layerwise", "block6", "block11")
_QPS = (50.0, 100.0, 150.0, 200.0, 250.0, 300.0)


def test_fig3_granularity(stack, benchmark, bench_queries):
    def run():
        return {policy: node_reports(stack, policy, "resnet50",
                                     list(_QPS), bench_queries)
                for policy in _POLICIES}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    header = f"{'policy':12s}" + "".join(f"{int(q):>9d}" for q in _QPS)
    sat_lines = [header]
    lat_lines = [header]
    for policy, reports in results.items():
        sat_lines.append(f"{policy:12s}" + "".join(
            f"{r.satisfaction_rate:9.0%}" for r in reports))
        lat_lines.append(f"{policy:12s}" + "".join(
            f"{min(r.average_latency_s * 1e3, 999):9.1f}" for r in reports))
    sat = {p: [r.satisfaction_rate for r in rs]
           for p, rs in results.items()}
    record("fig03a", "Fig 3a: QoS satisfaction vs QPS",
           "\n".join(sat_lines),
           metrics={f"sat_mean_{p}": sum(rates) / len(rates)
                    for p, rates in sat.items()})
    record("fig03b", "Fig 3b: average latency (ms) vs QPS",
           "\n".join(lat_lines),
           metrics={f"lat50_ms_{p}": rs[0].average_latency_s * 1e3
                    for p, rs in results.items()})
    # Everyone healthy at the lowest load.
    for policy in _POLICIES:
        assert sat[policy][0] > 0.9, f"{policy} unhealthy at 50 QPS"
    # Paper Fig. 3a: layer-wise degrades clearly below block scheduling
    # at high load.
    high = len(_QPS) - 3  # 200 QPS column
    assert max(sat["block6"][high], sat["block11"][high]) >= \
        sat["layerwise"][high]
    # Block scheduling holds satisfaction longer than layer-wise overall.
    assert sum(sat["block11"]) > sum(sat["layerwise"])
