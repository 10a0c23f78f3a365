"""Reusable experiment drivers behind the paper's figures.

Each function maps onto one evaluation protocol of Sec. 5; the benchmark
modules parameterise them per figure and print the paper-shaped series.

The load axis is the expensive one — every point of a QPS sweep is an
independent simulation — so every driver describes its simulation as a
frozen :class:`NodeSweep` and maps it over the offered loads with
:func:`repro.parallel.sweep`, which can fan the loads out over
``fork``-ed worker processes.  The capacity search (:func:`capacity`,
the Fig. 12 protocol) and the latency curves (:func:`reports_over_qps`,
Fig. 13) both run through it; with ``workers=1`` every call reduces to
the classic sequential protocol.

Every driver accepts a ``scenario`` (:class:`repro.workloads.ScenarioSpec`
or registered name): the arrival shape the sweep scales to each offered
load.  ``None`` is the paper's stationary Poisson stream, the
``"poisson"`` scenario.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from repro.parallel import sweep, sweep_pool
from repro.serving.metrics import ServingReport, max_qps_at_satisfaction
from repro.serving.server import ServingStack
from repro.serving.workload import WorkloadSpec


def open_loop_scenario(scenario):
    """Registered name or spec -> spec; ``None`` -> ``"poisson"``.

    Request-model scenarios (``closed_loop``/``pipeline``) are rejected
    up front: the open-loop sweep drivers pre-draw a fixed stream per
    load, which a completion-driven scenario cannot express — run those
    through :meth:`Cluster.serve_stream
    <repro.cluster.fleet.Cluster.serve_stream>` (a one-node
    ``round_robin`` fleet is the single-node driver).
    (Import is lazy: ``repro.workloads`` sits above this module in the
    layering.)
    """
    from repro.workloads.scenario import resolve_scenario
    resolved = resolve_scenario(scenario)
    if resolved.request_model:
        raise ValueError(
            f"scenario {resolved.name!r} uses the request model "
            "(closed-loop/pipeline); open-loop sweeps cannot drive it — "
            "use Cluster.serve_stream (one node: homogeneous(1), "
            "router='round_robin')")
    return resolved


def warm_models(stack: ServingStack) -> None:
    """Compile and profile every model of ``stack`` (pre-fork warm-up)."""
    stack.ensure_compiled()
    for name in stack.model_names:
        _ = stack.profiles[name]


@dataclass(frozen=True)
class NodeSweep:
    """One node serving ``count`` queries of ``spec`` under ``policy``.

    The sweep point of the single-node drivers: calling it with an
    offered load simulates that load and returns its report.
    """

    stack: ServingStack
    policy: str
    spec: WorkloadSpec
    count: int
    seed: int | None = None
    scenario: object = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario",
                           open_loop_scenario(self.scenario))

    def warm(self) -> None:
        """Build what workers share by copy-on-write, before the fork.

        Only the proxy-driven policies pay the proxy fit.
        """
        warm_models(self.stack)
        if self.policy in ("veltair_ac", "veltair_full"):
            _ = self.stack.proxy

    def __call__(self, qps: float) -> ServingReport:
        return self.stack.report(self.policy, self.spec, float(qps),
                                 self.count, seed=self.seed,
                                 scenario=self.scenario)


def sweep_qps(stack: ServingStack, policy: str, spec: WorkloadSpec,
              qps_values: list[float], count: int,
              seed: int | None = None, workers: int | None = None,
              pool=None, scenario=None) -> list[ServingReport]:
    """One report per offered load, optionally across worker processes.

    Every point is an independent simulation of ``count`` queries, so
    the sweep parallelises perfectly.  ``workers > 1`` forks a process
    pool (the compiled stack travels by copy-on-write, never pickled);
    ``workers`` of 1 or ``None``, or a platform without ``fork``, runs
    the points sequentially in-process — same results either way, the
    simulations are deterministic per (seed, qps).  Pass a
    :func:`repro.parallel.sweep_pool` built for the equal
    :class:`NodeSweep` as ``pool`` to reuse warm workers across calls.
    """
    point = NodeSweep(stack, policy, spec, count, seed=seed,
                      scenario=scenario)
    return sweep(point, qps_values, workers=workers, pool=pool)


def reports_over_qps(stack: ServingStack, policy: str, model_name: str,
                     qps_values: list[float], count: int,
                     seed: int | None = None,
                     workers: int | None = None,
                     scenario="uniform") -> list[ServingReport]:
    """One report per offered load — the Fig. 3 / Fig. 5a protocol.

    The paper's granularity study streams a single model with identical
    uniform arrivals (the default ``"uniform"`` scenario); any other
    ``scenario`` swaps in that arrival shape.
    """
    spec = WorkloadSpec(name=model_name, entries=((model_name, 1.0),))
    return sweep_qps(stack, policy, spec, qps_values, count, seed=seed,
                     workers=workers, scenario=scenario)


def search_capacity(point, workers: int | None = None,
                    **bisection) -> tuple[float, object]:
    """:func:`max_qps_at_satisfaction` over a sweep point's loads.

    With ``workers > 1`` each search round batches ``workers`` loads
    across one persistent :func:`repro.parallel.sweep_pool`
    (speculative multi-point bisection over warm workers); with the
    default it is the paper's sequential protocol, probe for probe.
    ``bisection`` carries the search bounds (``target``, ``low_qps``,
    ``high_qps``, ``tolerance_qps``).
    """
    batch = 1 if workers is None else max(1, int(workers))
    with (sweep_pool(point, batch) if batch > 1
          else contextlib.nullcontext()) as pool:
        return max_qps_at_satisfaction(
            run_batch=lambda loads: sweep(point, loads, pool=pool),
            batch=batch, **bisection)


@dataclass(frozen=True)
class CapacityResult:
    """QPS@95% for one (policy, workload) cell of Fig. 12."""

    policy: str
    workload: str
    qps: float
    report: ServingReport


def capacity(stack: ServingStack, policy: str, spec: WorkloadSpec,
             count: int, target: float = 0.95,
             low_qps: float = 10.0, high_qps: float = 800.0,
             tolerance_qps: float = 15.0,
             seed: int | None = None,
             workers: int | None = None,
             scenario=None) -> CapacityResult:
    """Max offered QPS with ``target`` QoS satisfaction (Fig. 12 metric).

    The bisection runs through :func:`search_capacity`.  A ``scenario``
    makes this "capacity under that arrival shape": the bisection
    scales the scenario's mean rate instead of a stationary Poisson
    rate.
    """
    qps, report = search_capacity(
        NodeSweep(stack, policy, spec, count, seed=seed,
                  scenario=scenario),
        workers=workers, target=target, low_qps=low_qps,
        high_qps=high_qps, tolerance_qps=tolerance_qps)
    return CapacityResult(policy=policy, workload=spec.name, qps=qps,
                          report=report)


def latency_at_capacity(stack: ServingStack, policy: str,
                        spec: WorkloadSpec, count: int,
                        **capacity_kwargs) -> tuple[float, float]:
    """(capacity QPS, average latency at that QPS) — Fig. 13 protocol."""
    result = capacity(stack, policy, spec, count, **capacity_kwargs)
    return result.qps, result.report.average_latency_s
