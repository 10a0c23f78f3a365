"""The benchmark's workloads: how each builds its stack and serves a rate.

Every workload is an open loop drawn in this process (no worker pool)
and served by ``veltair_full`` on every node.  The workload seed drives
only the stream draws; the stack's compile seed is fixed, so set-up does
the same work on every seed.  A workload is a ladder of offered rates
(rungs), each one stream drawn with the workload seed (common random
numbers across the ladder).

:func:`check_rung` checks conservation and causality of a served rung;
:func:`rung_stats` reduces it to the simulated figures.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.cluster import Cluster, ClusterSpec, homogeneous
from repro.hardware.platform import THREADRIPPER_3990X, DeviceSpec
from repro.runtime.engine import Engine
from repro.runtime.tasks import Query
from repro.serving.server import ServingStack
from repro.serving.workload import WorkloadSpec, scenario_queries
from repro.workloads import PipelineQuery, ScenarioSpec, get_scenario

from tracing import SpanLog, cpu_ns

POLICY = "veltair_full"
ROUTER = "pressure_aware"
#: Compile seed of every stack; never the workload seed.
STACK_SEED = 0
#: Auto-scheduler trials per layer and proxy-training scenarios: small
#: enough that one cold set-up takes a few seconds on one core.
TRIALS = 64
PROXY_SCENARIOS = 60
#: Share of offered requests that must meet QoS for a rate to count
#: towards capacity (the paper's 95% QoS target).
QOS_TARGET = 0.95
#: Drain time after the last arrival, as a share of the arrival span,
#: beyond which a rate counts as building a growing backlog.
BACKLOG_SHARE = 0.05
#: The highest percentile reported; it needs this many samples beyond it.
TAIL_PERCENTILE = 99.0
MIN_TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Rung:
    """One offered rate of the ladder and the requests drawn for it."""

    qps: float
    requests: int


@dataclass(frozen=True)
class Workload:
    name: str
    #: Arrival shape, and the pipeline when requests are model chains.
    scenario: ScenarioSpec
    #: Model mix of open-loop scenarios; a pipeline brings its own.
    mix: WorkloadSpec | None
    #: ``None`` serves on one node through ``ServingStack.run``; a fleet
    #: serves through ``Cluster.serve_stream``.
    fleet: ClusterSpec | None
    #: Ascending rates; the first is ``lo`` and the last ``hi``.
    ladder: tuple[Rung, ...]

    @property
    def models(self) -> list[str]:
        if self.mix is not None:
            return self.mix.models
        return list(self.scenario.pipeline.stages)

    @property
    def devices(self) -> tuple[DeviceSpec, ...]:
        if self.fleet is None:
            return (THREADRIPPER_3990X,)
        return self.fleet.device_specs

    @property
    def total_cores(self) -> int:
        if self.fleet is None:
            return THREADRIPPER_3990X.cores
        return self.fleet.total_cores


WORKLOADS = {workload.name: workload for workload in (
    Workload(name="node_mix", scenario=get_scenario("poisson"),
             mix=WorkloadSpec(name="node_mix", entries=(
                 ("mobilenet_v2", 2.0), ("googlenet", 1.0),
                 ("resnet50", 1.0))),
             fleet=None,
             ladder=(Rung(60.0, 2000), Rung(90.0, 600), Rung(120.0, 2000))),
    Workload(name="fleet_pipeline", scenario=get_scenario("vision_pipeline"),
             mix=None, fleet=homogeneous(2),
             ladder=(Rung(2.0, 3000), Rung(5.0, 400), Rung(8.0, 2000))),
)}


@dataclass
class Deployment:
    """A ready-to-serve stack and, for fleets, the cluster over it."""

    stack: ServingStack
    cluster: Cluster | None


def deploy(workload: Workload) -> Deployment:
    """Cold set-up: compile, profile, fit the proxy, build each runtime.

    No persistent artifact store and one compile worker, so every call
    pays the whole compile in this process.
    """
    stack = ServingStack(models=workload.models, trials=TRIALS,
                         proxy_scenarios=PROXY_SCENARIOS, seed=STACK_SEED,
                         artifact_store=None, compile_workers=1)
    stack.ensure_compiled()
    stack.profiles.values()  # builds every model's scheduling profile
    if stack.proxy is None:
        raise CheckFailed(f"{POLICY} needs the interference proxy")
    for device in workload.devices:
        stack.runtime_for(device)
    cluster = (Cluster(stack, workload.fleet, router=ROUTER)
               if workload.fleet is not None else None)
    return Deployment(stack=stack, cluster=cluster)


@dataclass
class RungOutcome:
    """What serving one rung left behind."""

    rung: Rung
    #: Offered requests: ``Query`` objects, or ``PipelineQuery`` chains.
    requests: list
    #: Every stage-level query offered, in offer order.
    stages: list[Query]
    engines: list[Engine]
    shed: int
    load_imbalance: float
    #: Host CPU time of the serve call alone (generation excluded).
    serve_ns: int


def serve_rung(workload: Workload, deployment: Deployment, rung: Rung,
               seed: int, log: SpanLog | None = None) -> RungOutcome:
    """Draw one rung's stream and serve it through the public API."""
    span = log.span if log is not None else _no_span
    stack, cluster = deployment.stack, deployment.cluster
    if cluster is None:
        with span("workloads.gen"):
            queries = scenario_queries(stack.compiled, workload.scenario,
                                       rung.qps, rung.requests, seed=seed,
                                       spec=workload.mix)
        with span("serving.run"):
            start = cpu_ns()
            _, engine = stack.run(POLICY, queries)
            serve_ns = cpu_ns() - start
        return RungOutcome(rung=rung, requests=queries, stages=queries,
                           engines=[engine], shed=0, load_imbalance=1.0,
                           serve_ns=serve_ns)
    with span("workloads.gen"):
        stream = workload.scenario.stream(stack.compiled, rung.qps,
                                          rung.requests, seed=seed,
                                          spec=workload.mix)
    with span("cluster.serve_stream"):
        start = cpu_ns()
        report = cluster.serve_stream(stream, offered_qps=rung.qps)
        serve_ns = cpu_ns() - start
    stages = list(cluster.last_offered)
    if report.offered != len(stages):
        raise CheckFailed(f"{workload.name}@{rung.qps:g}: report offers "
                          f"{report.offered}, driver logged {len(stages)}")
    return RungOutcome(
        rung=rung, requests=[*stream.queries, *stream.pipelines],
        stages=stages, engines=[node.engine for node in cluster.last_nodes],
        shed=report.shed, load_imbalance=report.load_imbalance,
        serve_ns=serve_ns)


@contextlib.contextmanager
def _no_span(name: str):
    yield


def id_of(query: Query) -> tuple[int, int]:
    """A stage-level query's identity: (query id, stage index or -1)."""
    return (query.query_id, -1 if query.stage is None else query.stage)


class CheckFailed(Exception):
    """A correctness check on the simulated results failed."""


def fingerprint(outcome: RungOutcome) -> str:
    """Digest of every simulated outcome of a rung (exact floats)."""
    digest = hashlib.sha256()
    for query in outcome.stages:
        fields = (*id_of(query), query.arrival_s, query.started_s,
                  query.finished_s, query.conflicts, query.grows,
                  query.blocks, query.core_seconds)
        digest.update(repr(fields).encode())
    for engine in outcome.engines:
        # Simulated accounting only: prices_computed counts pricing-cache
        # misses, which fall as the cache warms.
        m = engine.metrics
        digest.update(repr((m.conflicts, m.grows, m.blocks_started,
                            m.usage_core_seconds, m.first_event_s,
                            m.last_event_s, m.max_cores_used,
                            m.finish_events_pushed, m.repricings)).encode())
    return digest.hexdigest()


def _percentile(values: list[float], q: float) -> float:
    """``q``-th percentile; NaN when fewer than 10 samples lie beyond it."""
    beyond = len(values) * min(q, 100.0 - q) / 100.0
    if beyond < MIN_TAIL_SAMPLES:
        return float("nan")
    return float(np.percentile(np.asarray(values), q))


def check_rung(workload: Workload, outcome: RungOutcome) -> None:
    """Conservation and causality of a served rung.

    Raises :class:`CheckFailed` on the first violation.
    """
    where = f"{workload.name}@{outcome.rung.qps:g}"
    engine_done = [query for engine in outcome.engines
                   for query in engine.completed]
    finished = [query for query in outcome.stages
                if query.finished_s is not None]
    if len({id_of(query) for query in engine_done}) != len(engine_done):
        raise CheckFailed(f"{where}: a query completed twice")
    if len(engine_done) != len(finished):
        raise CheckFailed(f"{where}: engines completed {len(engine_done)} "
                          f"queries, {len(finished)} carry a finish time")
    if len(outcome.stages) < len(finished) + outcome.shed:
        raise CheckFailed(f"{where}: offered {len(outcome.stages)} < "
                          f"completed {len(finished)} + shed "
                          f"{outcome.shed}")
    for query in outcome.stages:
        if query.started_s is not None and query.started_s < query.arrival_s:
            raise CheckFailed(f"{where}: query {id_of(query)} started "
                              "before it arrived")
        if query.finished_s is not None and (
                query.started_s is None
                or query.finished_s < query.started_s):
            raise CheckFailed(f"{where}: query {id_of(query)} finished "
                              "before it started")
    for chain in outcome.requests:
        if isinstance(chain, PipelineQuery):
            _check_chain(chain, where)


def _check_chain(chain: PipelineQuery, where: str) -> None:
    if not chain.done:
        raise CheckFailed(f"{where}: chain {chain.pipeline_id} neither "
                          "finished nor failed")
    for upstream, stage in zip(chain.stages, chain.stages[1:]):
        if stage.started_s is None:
            continue
        if (upstream.finished_s is None
                or stage.arrival_s < upstream.finished_s):
            raise CheckFailed(f"{where}: chain {chain.pipeline_id} stage "
                              f"{stage.stage} arrived before stage "
                              f"{upstream.stage} finished")
    if (chain.finished_s is not None
            and chain.finished_s != chain.stages[-1].finished_s):
        raise CheckFailed(f"{where}: chain {chain.pipeline_id} finish "
                          "differs from its last stage's")


def _backlog_grows(outcome: RungOutcome) -> bool:
    """True when the stream ends with a backlog that kept growing.

    A stable queue drains within one QoS budget of the last arrival,
    give or take a burst; a growing one leaves the last finish behind
    by a share of the whole arrival span.
    """
    arrivals = [query.arrival_s for query in outcome.stages]
    last_finish = max(query.finished_s for query in outcome.stages
                      if query.finished_s is not None)
    allowance = max(max(request.qos_s for request in outcome.requests),
                    BACKLOG_SHARE * (max(arrivals) - min(arrivals)))
    return last_finish - max(arrivals) > allowance


def rung_stats(workload: Workload, outcome: RungOutcome) -> dict[str, float]:
    """Simulated figures of one rung, counted against offered requests."""
    requests, stages = outcome.requests, outcome.stages
    latencies = [request.latency_s for request in requests
                 if request.finished_s is not None]
    satisfied = sum(1 for request in requests if request.satisfied)
    waits = [query.started_s - query.arrival_s for query in stages
             if query.started_s is not None]
    handoffs = [query.started_s - query.arrival_s for query in stages
                if query.started_s is not None and query.stage]
    metrics = [engine.metrics for engine in outcome.engines]
    ran = [m for m in metrics if m.first_event_s is not None]
    busy_window = (max(m.last_event_s for m in ran)
                   - min(m.first_event_s for m in ran))
    return {
        "offered": float(len(requests)),
        "failed": float(len(requests) - len(latencies)),
        "qos_sat_pct": 100.0 * satisfied / len(requests),
        "lat_p50_ms": 1e3 * _percentile(latencies, 50.0),
        "lat_p99_ms": 1e3 * _percentile(latencies, TAIL_PERCENTILE),
        "backlog_grows": float(_backlog_grows(outcome)),
        "queue_wait_ms.p50": 1e3 * _percentile(waits, 50.0),
        "queue_wait_ms.p99": 1e3 * _percentile(waits, TAIL_PERCENTILE),
        "handoff_wait_ms.p99": (1e3 * _percentile(handoffs, TAIL_PERCENTILE)
                                if handoffs else 0.0),
        "conflict_rate": (sum(m.conflicts for m in metrics)
                          / max(1, sum(m.blocks_started for m in metrics))),
        "grows_per_query": sum(m.grows for m in metrics) / len(stages),
        "core_util_pct": (100.0 * sum(m.usage_core_seconds for m in metrics)
                          / (workload.total_cores * busy_window)),
        "load_imbalance": outcome.load_imbalance,
    }


def capacity_qps(ladder_stats: list[tuple[Rung, dict[str, float]]]) -> float:
    """Highest ladder rate meeting the QoS target without backlog growth.

    0 when no rate passes.
    """
    passing = [rung.qps for rung, stats in ladder_stats
               if stats["qos_sat_pct"] >= 100.0 * QOS_TARGET
               and not stats["backlog_grows"]]
    return max(passing, default=0.0)
