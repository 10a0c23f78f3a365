"""Paper Fig. 5 — scheduling conflicts and their per-layer overhead.

Fig. 5a: conflict rate vs load per granularity (layer-wise highest — the
paper reports 23.8% at 300 QPS).  Fig. 5b: the per-layer conflict
(expansion) overhead, mean ~220 us / median ~100 us in the paper.
"""

import numpy as np
from conftest import node_reports, record


_POLICIES = ("model_fcfs", "layerwise", "block6", "block11")
_QPS = (50.0, 150.0, 250.0, 300.0)


def test_fig5a_conflict_rate(stack, benchmark, bench_queries):
    def run():
        return {policy: node_reports(stack, policy, "resnet50",
                                     list(_QPS), bench_queries)
                for policy in _POLICIES}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [f"{'policy':12s}" + "".join(f"{int(q):>9d}" for q in _QPS)]
    for policy, reports in results.items():
        lines.append(f"{policy:12s}" + "".join(
            f"{r.conflict_rate:9.1%}" for r in reports))
    final = {p: rs[-1].conflict_rate for p, rs in results.items()}
    record("fig05a", "Fig 5a: conflict rate vs QPS", "\n".join(lines),
           metrics={f"final_conflict_{p}": rate
                    for p, rate in final.items()})
    # Layer-wise conflicts dominate; model-wise has none by construction.
    assert final["layerwise"] >= max(final["block6"], final["block11"])
    assert final["model_fcfs"] == 0.0
    assert final["layerwise"] > 0.05


def test_fig5b_conflict_overhead(stack, benchmark):
    profile = stack.profiles["resnet50"]

    def run():
        # A conflicted layer starts on roughly half its demand and grows
        # by the rest — the overhead is the expansion re-spawn.
        return [stack.cost_model.expand_overhead(required - required // 2)
                for required in profile.layer_required_cores]

    overheads = benchmark.pedantic(run, rounds=1, iterations=1)
    mean_us = float(np.mean(overheads)) * 1e6
    median_us = float(np.median(overheads)) * 1e6
    record("fig05b", "Fig 5b: per-layer conflict overhead",
           f"mean   = {mean_us:6.1f} us   (paper: ~220 us)\n"
           f"median = {median_us:6.1f} us   (paper: ~100 us)\n"
           f"max    = {max(overheads) * 1e6:6.1f} us",
           metrics={"mean_us": mean_us, "median_us": median_us,
                    "max_us": max(overheads) * 1e6})

    # Same decade as the paper's measurement.
    assert 30 < mean_us < 700
