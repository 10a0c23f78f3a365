"""Paper Fig. 13 — query latency vs the isolated solo run.

Average query latency under load, normalised to the model's solo-run
latency on the whole machine.  Paper: VELTAIR-FULL lands within ~1.1x of
isolated execution, AS alone ~1.6x, AC alone ~1.17x.
"""

from conftest import node_reports, record


_MODELS = ("mobilenet_v2", "googlenet", "resnet50")
_POLICIES = ("veltair_as", "veltair_ac", "veltair_full")
#: Moderate per-model load: high enough for real co-location, low enough
#: that every policy still completes the stream.
_QPS = {"mobilenet_v2": 250.0, "googlenet": 150.0, "resnet50": 120.0}


def test_fig13_latency_vs_isolated(stack, benchmark, bench_queries,
                                   bench_workers):
    def run():
        rows = {}
        for model in _MODELS:
            iso = stack.isolated_model_latency(model)
            for policy in _POLICIES:
                report = node_reports(stack, policy, model,
                                      [_QPS[model]], bench_queries,
                                      workers=bench_workers)[0]
                rows[(model, policy)] = report.average_latency_s / iso
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [f"{'model':16s}" + "".join(f"{p:>14s}" for p in _POLICIES)]
    for model in _MODELS:
        lines.append(f"{model:16s}" + "".join(
            f"{rows[(model, p)]:13.2f}x" for p in _POLICIES))
    averages = {p: sum(rows[(m, p)] for m in _MODELS) / len(_MODELS)
                for p in _POLICIES}
    lines.append(f"{'average':16s}" + "".join(
        f"{averages[p]:13.2f}x" for p in _POLICIES))
    metrics = {f"{model}_{policy}": ratio
               for (model, policy), ratio in rows.items()}
    metrics.update({f"avg_{policy}": value
                    for policy, value in averages.items()})
    record("fig13", "Fig 13: latency normalised to isolated run",
           "\n".join(lines), metrics=metrics)

    # Paper Fig. 13: the full system runs close to the isolated bound
    # (the bound itself uses the whole 64-core machine, which co-located
    # queries never get, so a gap of ~2-3x is the simulator's isolation
    # premium rather than scheduling loss).
    assert averages["veltair_full"] < 3.5
    for policy in _POLICIES:
        assert averages[policy] >= 0.9  # nothing beats isolation
