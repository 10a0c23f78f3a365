"""Experiment drivers: load sweeps and capacity searches.

A single node is a one-node ``round_robin`` fleet, so every figure runs
here.  A simulation is a frozen :class:`FleetSweep` (or
:class:`AutoscaleSweep`) point that :func:`repro.parallel.sweep` maps
over the offered loads, fanning them out over ``fork``-ed workers (the
compiled stack travels by copy-on-write, never pickled) or running them
serially in-process on platforms without ``fork``.  A ``scenario``
(name or :class:`repro.workloads.ScenarioSpec`; ``None`` is Poisson) is
the arrival shape each sweep scales to its offered loads.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from repro.cluster.admission import AdmissionPolicy
from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.fleet import Cluster
from repro.cluster.metrics import ClusterReport
from repro.cluster.router import PressureAwareRouter, make_router
from repro.cluster.spec import ClusterSpec
from repro.parallel import sweep, sweep_pool
from repro.serving.metrics import max_qps_at_satisfaction, meets_target
from repro.serving.server import PROXY_POLICIES, ServingStack
from repro.serving.workload import WorkloadSpec, scenario_queries
from repro.workloads.scenario import resolve_scenario


def open_loop_scenario(scenario):
    """Registered name or spec -> spec; ``None`` -> ``"poisson"``.

    Request-model scenarios (``closed_loop``/``pipeline``) are rejected
    up front: the open-loop sweep drivers pre-draw a fixed stream per
    load, which a completion-driven scenario cannot express — run those
    through :meth:`Cluster.serve_stream
    <repro.cluster.fleet.Cluster.serve_stream>` (a one-node
    ``round_robin`` fleet is the single-node driver).
    """
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


def _warm_runtimes(stack: ServingStack, devices, policies, router: str,
                   admission: AdmissionPolicy | None) -> None:
    """Pre-fork warm-up: models, runtimes, and the proxies a serve reads.

    Proxies are read by proxy-driven policies, pressure-reading routers
    and admission control; no one else pays the fit.
    """
    warm_models(stack)
    reads_proxy = (admission is not None
                   or any(policy in PROXY_POLICIES for policy in policies)
                   or isinstance(make_router(router), PressureAwareRouter))
    for device in devices:
        runtime = stack.runtime_for(device)
        if reads_proxy:
            _ = runtime.proxy


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
class FleetSweep:
    """A fleet serving ``count`` queries of ``spec`` through ``router``.

    The sweep point of the fleet drivers: calling it with an offered
    load simulates that load fleet-wide and returns its rollup.
    """

    stack: ServingStack
    cluster_spec: ClusterSpec
    spec: WorkloadSpec
    count: int
    router: str = "pressure_aware"
    admission: AdmissionPolicy | None = None
    seed: int | None = None
    scenario: object = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario",
                           open_loop_scenario(self.scenario))

    def warm(self) -> None:
        """Build models, profiles and per-device runtimes pre-fork."""
        _warm_runtimes(self.stack, self.cluster_spec.device_specs,
                       [node.policy for node in self.cluster_spec.nodes],
                       self.router, self.admission)

    def __call__(self, qps: float) -> ClusterReport:
        cluster = Cluster(self.stack, self.cluster_spec,
                          router=self.router, admission=self.admission)
        return cluster.report(self.spec, float(qps), self.count,
                              seed=self.seed, scenario=self.scenario)


def sweep_cluster_qps(stack: ServingStack, cluster_spec: ClusterSpec,
                      spec: WorkloadSpec, qps_values: list[float],
                      count: int, router: str = "pressure_aware",
                      admission: AdmissionPolicy | None = None,
                      seed: int | None = None,
                      workers: int | None = None,
                      pool=None, scenario=None) -> list[ClusterReport]:
    """One :class:`ClusterReport` per offered load, optionally parallel.

    Every point is an independent simulation, deterministic per (seed,
    qps), so results are identical however they are computed.
    ``workers > 1`` forks a pool (``workers`` of 1 or ``None``, or a
    platform without ``fork``, runs the points in-process), and a
    :func:`repro.parallel.sweep_pool` built for the equal
    :class:`FleetSweep` passed as ``pool`` reuses warm workers.
    """
    point = FleetSweep(stack, cluster_spec, spec, count, router=router,
                       admission=admission, seed=seed, scenario=scenario)
    return sweep(point, qps_values, workers=workers, pool=pool)


@dataclass(frozen=True)
class AutoscalePoint:
    """Static-peak vs autoscaled fleet on one identical stream.

    The cost-vs-QoS frontier cell: the autoscaled fleet's QoS
    satisfaction relative to the static-peak fleet
    (:attr:`qos_ratio`, want >= ~0.95) against the node-seconds it
    actually paid for (:attr:`node_seconds_ratio`, want << 1).
    """

    scenario: str
    qps: float
    static: ClusterReport
    autoscaled: ClusterReport

    @property
    def qos_ratio(self) -> float:
        """Autoscaled / static-peak QoS satisfaction (1.0 = no loss)."""
        if self.static.satisfaction_rate <= 0.0:
            return 1.0 if self.autoscaled.satisfaction_rate <= 0.0 else float("inf")
        return (self.autoscaled.satisfaction_rate
                / self.static.satisfaction_rate)

    @property
    def node_seconds_ratio(self) -> float:
        """Autoscaled / static-peak node-seconds (the capacity saving)."""
        if self.static.node_seconds <= 0.0:
            return 1.0
        return self.autoscaled.node_seconds / self.static.node_seconds


@dataclass(frozen=True)
class AutoscaleSweep:
    """A static-peak and an autoscaled fleet serving the same stream.

    The sweep point of :func:`sweep_autoscale`; its loads are
    ``(scenario, qps)`` cells with the scenario already resolved.
    """

    stack: ServingStack
    static_spec: ClusterSpec
    initial_spec: ClusterSpec
    policy: AutoscalePolicy
    spec: WorkloadSpec
    count: int
    router: str = "pressure_aware"
    admission: AdmissionPolicy | None = None
    seed: int | None = None

    def warm(self) -> None:
        """Build models, profiles and every member's runtime pre-fork."""
        members = (self.initial_spec.nodes + self.static_spec.nodes
                   + (self.policy.template,))
        # dict.fromkeys, not set(): stable first-seen dedup order, so
        # runtimes warm (and the stack's runtime map fills) in the same
        # order every run regardless of PYTHONHASHSEED.
        _warm_runtimes(self.stack,
                       dict.fromkeys(node.device for node in members),
                       [node.policy for node in members], self.router,
                       self.admission)

    def __call__(self, cell: tuple) -> AutoscalePoint:
        """Serve one identical stream through both fleets, pair reports.

        Engines mutate queries, so each fleet gets its own regeneration
        of the same seeded stream (bit-identical arrivals and draws).
        """
        scenario, qps = cell
        seed = self.stack.seed if self.seed is None else self.seed

        def stream():
            return scenario_queries(self.stack.compiled, scenario, qps,
                                    self.count, seed=seed, spec=self.spec)

        static = Cluster(self.stack, self.static_spec, router=self.router,
                         admission=self.admission).serve(
                             stream(), offered_qps=qps)
        autoscaled = Cluster(self.stack, self.initial_spec,
                             router=self.router, admission=self.admission,
                             autoscale=self.policy).serve(
                                 stream(), offered_qps=qps)
        return AutoscalePoint(scenario=scenario.name, qps=qps,
                              static=static, autoscaled=autoscaled)


def sweep_autoscale(stack: ServingStack, static_spec: ClusterSpec,
                    initial_spec: ClusterSpec, policy: AutoscalePolicy,
                    spec: WorkloadSpec,
                    points: list[tuple[object, float]], count: int,
                    router: str = "pressure_aware",
                    admission: AdmissionPolicy | None = None,
                    seed: int | None = None,
                    workers: int | None = None) -> list[AutoscalePoint]:
    """One :class:`AutoscalePoint` per ``(scenario, qps)`` cell.

    ``static_spec`` is the peak-sized fixed fleet, ``initial_spec`` the
    autoscaled fleet's starting membership (typically ``min_nodes``
    small nodes), and each point serves the *same* seeded stream
    through both.  ``workers > 1`` fans cells over the fork pool
    exactly like :func:`sweep_cluster_qps`.
    """
    cells = [(open_loop_scenario(scenario), float(qps))
             for scenario, qps in points]
    point = AutoscaleSweep(stack, static_spec, initial_spec, policy, spec,
                           count, router=router, admission=admission,
                           seed=seed)
    return sweep(point, cells, workers=workers)


@dataclass(frozen=True)
class CapacityResult:
    """QPS@target for one (router, fleet, workload) cell (Fig. 12).

    :attr:`passed` says whether the search's floor probe met
    ``target``.  When it did not, ``qps`` is the floor itself — a
    bound the fleet never reached, not a capacity.
    """

    router: str
    cluster: str
    workload: str
    target: float
    qps: float
    report: ClusterReport

    @property
    def passed(self) -> bool:
        """Whether the floor probe (and so the reported load) passed."""
        return meets_target(self.report, self.target)

    @property
    def label(self) -> str:
        """The capacity as a table cell: ``"<qps>q"``, or ``"<floor"``."""
        return f"{self.qps:.0f}q" if self.passed else "<floor"


def cluster_capacity(stack: ServingStack, cluster_spec: ClusterSpec,
                     spec: WorkloadSpec, count: int,
                     router: str = "pressure_aware",
                     admission: AdmissionPolicy | None = None,
                     target: float = 0.95,
                     low_qps: float = 10.0, high_qps: float = 1600.0,
                     tolerance_qps: float = 25.0,
                     seed: int | None = None,
                     workers: int | None = None,
                     scenario=None) -> CapacityResult:
    """Max offered QPS with ``target`` fleet QoS satisfaction.

    The paper's Fig. 12 metric, fleet-wide: on ``homogeneous(1,
    policy=...)`` with ``router="round_robin"`` it is the single-node
    capacity.  Shed queries count as QoS violations, so admission
    control cannot buy capacity by rejecting its way to a clean
    satisfaction rate.  A ``scenario`` makes this "capacity under that
    arrival shape": the bisection (:func:`search_capacity`) scales the
    scenario's mean rate instead of a stationary Poisson rate.
    """
    qps, report = search_capacity(
        FleetSweep(stack, cluster_spec, spec, count, router=router,
                   admission=admission, seed=seed, scenario=scenario),
        workers=workers, target=target, low_qps=low_qps,
        high_qps=high_qps, tolerance_qps=tolerance_qps)
    return CapacityResult(router=router, cluster=cluster_spec.name,
                          workload=spec.name, target=target, qps=qps,
                          report=report)
