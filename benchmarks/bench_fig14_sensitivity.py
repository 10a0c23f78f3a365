"""Paper Fig. 14 — sensitivity: core-usage gap and version-count choice.

Fig. 14a: dynamic blocks keep the gap to the optimal (layer-wise
minimal) core usage small even at high load, unlike model-wise.
Fig. 14b: the benefit of more versions saturates around four or five.
Fig. 14c: how many versions each layer actually kept (3% of layers need
five in the paper).
"""

from collections import Counter

import numpy as np
from conftest import node_reports, record

from repro.models.layers import Conv2D
from repro.compiler.multiversion import SinglePassCompiler


def test_fig14a_core_usage_gap(stack, benchmark, bench_queries):
    loads = {"25% load": 60.0, "75% load": 170.0}

    def run():
        rows = {}
        for label, qps in loads.items():
            for policy in ("model_fcfs", "veltair_as"):
                report = node_reports(stack, policy, "resnet50",
                                      [qps], bench_queries)[0]
                rows[(label, policy)] = report.average_cores_used
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [f"{'load':10s} {'model-wise':>11s} {'dynamic':>9s}"
             f" {'gap':>7s}"]
    gaps = {}
    for label in loads:
        model_cores = rows[(label, "model_fcfs")]
        dyn_cores = rows[(label, "veltair_as")]
        gap = (model_cores - dyn_cores) / max(model_cores, 1e-9)
        gaps[label] = gap
        lines.append(f"{label:10s} {model_cores:11.1f} {dyn_cores:9.1f}"
                     f" {gap:7.1%}")
    record("fig14a", "Fig 14a: avg core usage, model-wise vs dynamic "
           "blocks", "\n".join(lines),
           metrics={f"gap_{label.split('%')[0]}": gap
                    for label, gap in gaps.items()})

    # Dynamic blocks never use more cores than the model-wise grant.
    assert all(rows[(label, "veltair_as")]
               <= rows[(label, "model_fcfs")] * 1.10 for label in loads)


def test_fig14b_improvement_vs_versions(stack, benchmark):
    layer = Conv2D(name="fig6", height=14, width=14, in_channels=256,
                   out_channels=256)

    def run():
        scores = {}
        for max_versions in (1, 2, 3, 4, 5):
            compiler = SinglePassCompiler(stack.cost_model, trials=384,
                                          max_versions=max_versions,
                                          keep_threshold=1.0, seed=31)
            compiled = compiler.compile_layer(layer, 400e-6)
            per_level = [min(row[li] for row in compiled.latency_table)
                         for li in range(len(compiled.levels))]
            scores[max_versions] = float(np.mean(per_level))
        return scores

    scores = benchmark.pedantic(run, rounds=1, iterations=1)

    base = scores[1]
    lines = [f"{'versions':>9s} {'mean latency us':>16s} {'gain':>7s}"]
    for n, value in scores.items():
        lines.append(f"{n:9d} {value * 1e6:16.1f}"
                     f" {(base - value) / base:7.1%}")
    record("fig14b", "Fig 14b: improvement vs version count",
           "\n".join(lines),
           metrics={f"gain_{n}": (base - value) / base
                    for n, value in scores.items()})

    # Paper Fig. 14b: improvement grows then saturates by 4-5 versions.
    assert scores[5] <= scores[1]
    gain_4 = (base - scores[4]) / base
    gain_5 = (base - scores[5]) / base
    assert gain_5 - gain_4 < 0.05


def test_fig14c_version_distribution(stack, benchmark):
    def run():
        counts = Counter()
        for compiled in stack.compiled.values():
            counts.update(compiled.version_counts)
        return counts

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    total = sum(counts.values())
    lines = [f"{n} version(s): {counts.get(n, 0) / total:6.1%}"
             for n in sorted(counts)]
    record("fig14c", "Fig 14c: retained versions across all layers",
           "\n".join(lines),
           metrics={f"share_{n}": counts.get(n, 0) / total
                    for n in sorted(counts)})

    # Multi-versioning is actually used, but most layers need few
    # versions (paper Fig. 14c).
    multi = sum(v for n, v in counts.items() if n >= 2)
    assert multi / total > 0.2
    assert counts.get(1, 0) > 0
