"""Fleet-level experiment drivers: load sweeps and capacity searches.

The cluster analogues of :mod:`repro.serving.experiments`, on the same
sweep primitive: a fleet simulation is a frozen :class:`FleetSweep` (or
:class:`AutoscaleSweep`) point that :func:`repro.parallel.sweep` maps
over the offered loads, fanning them out over ``fork``-ed workers (the
compiled stack travels by copy-on-write, never pickled) or running them
serially in-process on platforms without ``fork``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.admission import AdmissionPolicy
from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.fleet import Cluster
from repro.cluster.metrics import ClusterReport
from repro.cluster.spec import ClusterSpec
from repro.parallel import sweep
from repro.serving.experiments import (
    open_loop_scenario,
    search_capacity,
    warm_models,
)
from repro.serving.server import ServingStack
from repro.serving.workload import WorkloadSpec, scenario_queries


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
        warm_models(self.stack)
        for device in self.cluster_spec.device_specs:
            self.stack.runtime_for(device)

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

    Same contract as :func:`repro.serving.experiments.sweep_qps`: every
    point is deterministic per (seed, qps), ``workers > 1`` forks a
    pool, and a :func:`repro.parallel.sweep_pool` built for the equal
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
        warm_models(self.stack)
        # dict.fromkeys, not set(): stable first-seen dedup order, so
        # runtimes warm (and the stack's runtime map fills) in the same
        # order every run regardless of PYTHONHASHSEED.
        for device in dict.fromkeys(self.initial_spec.device_specs
                                    + self.static_spec.device_specs
                                    + (self.policy.template.device,)):
            self.stack.runtime_for(device)

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
class ClusterCapacityResult:
    """Fleet QPS@target for one (router, fleet, workload) cell."""

    router: str
    cluster: str
    workload: str
    qps: float
    report: ClusterReport


def cluster_capacity(stack: ServingStack, cluster_spec: ClusterSpec,
                     spec: WorkloadSpec, count: int,
                     router: str = "pressure_aware",
                     admission: AdmissionPolicy | None = None,
                     target: float = 0.95,
                     low_qps: float = 10.0, high_qps: float = 1600.0,
                     tolerance_qps: float = 25.0,
                     seed: int | None = None,
                     workers: int | None = None,
                     scenario=None) -> ClusterCapacityResult:
    """Max offered QPS with ``target`` fleet QoS satisfaction.

    The fleet version of the paper's Fig. 12 metric: shed queries count
    as QoS violations, so admission control cannot buy capacity by
    rejecting its way to a clean satisfaction rate.  The bisection is
    :func:`repro.serving.experiments.search_capacity`, shared with the
    single-node :func:`~repro.serving.experiments.capacity`.
    """
    qps, report = search_capacity(
        FleetSweep(stack, cluster_spec, spec, count, router=router,
                   admission=admission, seed=seed, scenario=scenario),
        workers=workers, target=target, low_qps=low_qps,
        high_qps=high_qps, tolerance_qps=tolerance_qps)
    return ClusterCapacityResult(router=router, cluster=cluster_spec.name,
                                 workload=spec.name, qps=qps,
                                 report=report)
