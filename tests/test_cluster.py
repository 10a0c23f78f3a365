"""Cluster subsystem tests: specs, routers, admission, fleet driver,
the engine's incremental-driving hooks the fleet rides on, and the
fork-pool sweep primitive behind the node and fleet experiments."""

import pytest

from repro.cluster import (
    ROUTERS,
    AdmissionPolicy,
    Cluster,
    ClusterSpec,
    NodeSpec,
    cluster_capacity,
    fleet_pressure,
    homogeneous,
    make_router,
    mixed_fleet,
    sweep_cluster_qps,
)
from repro.cluster.experiments import FleetSweep
from repro.hardware.platform import (
    EDGE_NODE_32,
    PRODUCTION_SERVER_256,
    THREADRIPPER_3990X,
)
from repro.parallel import sweep, sweep_pool
from repro.runtime.engine import Engine
from repro.scheduling.veltair import VeltairScheduler
from repro.serving.metrics import max_qps_at_satisfaction, summarize
from repro.serving.workload import WorkloadSpec, scenario_queries
from repro.workloads import (
    ClosedLoopSpec,
    PipelineSpec,
    ScenarioSpec,
    get_scenario,
)

MIX = WorkloadSpec(name="mix2", entries=(("mobilenet_v2", 1.0),
                                         ("googlenet", 1.0)))


class TestClusterSpec:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            ClusterSpec(name="x", nodes=())

    def test_rejects_duplicate_node_names(self):
        node = NodeSpec(name="a", device=THREADRIPPER_3990X)
        with pytest.raises(ValueError):
            ClusterSpec(name="x", nodes=(node, node))

    def test_rejects_empty_node_name(self):
        with pytest.raises(ValueError):
            NodeSpec(name="", device=THREADRIPPER_3990X)

    def test_homogeneous(self):
        spec = homogeneous(3)
        assert len(spec) == 3
        assert spec.total_cores == 3 * 64
        assert spec.device_specs == (THREADRIPPER_3990X,)
        with pytest.raises(AttributeError):
            _ = spec.cpu_specs  # deprecated alias, removed
        with pytest.raises(ValueError):
            homogeneous(0)

    def test_mixed_fleet_shape(self):
        spec = mixed_fleet()
        assert len(spec) == 4
        assert spec.total_cores == 64 + 64 + 256 + 32
        assert set(spec.device_specs) == {THREADRIPPER_3990X,
                                          PRODUCTION_SERVER_256,
                                          EDGE_NODE_32}


class _StubEngine:
    def __init__(self, queued: int, running: int) -> None:
        self.queued = queued
        self.outstanding = queued + running


class _StubNode:
    def __init__(self, index: int, cores: int, queued: int = 0,
                 running: int = 0, pressure: float = 0.0) -> None:
        self.index = index
        self.cores = cores
        self.width = cores
        self.engine = _StubEngine(queued, running)
        self._pressure = pressure

    def pressure_estimate(self) -> float:
        return self._pressure


class _StubQuery:
    def __init__(self, qos_s: float) -> None:
        self.qos_s = qos_s


class TestRouters:
    def test_registry_constructs_all(self):
        for name in ROUTERS:
            assert make_router(name).name == name
        with pytest.raises(ValueError):
            make_router("teleport")

    def test_round_robin_cycles(self):
        router = make_router("round_robin")
        nodes = [_StubNode(i, 64) for i in range(3)]
        picks = [router.choose(nodes, _StubQuery(0.01), 0.0).index
                 for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_counts_running(self):
        nodes = [_StubNode(0, 64, queued=0, running=5),
                 _StubNode(1, 64, queued=2, running=0)]
        assert make_router("least_outstanding").choose(
            nodes, _StubQuery(0.01), 0.0).index == 1
        # JSQ ignores executing queries: node 0 looks idle.
        assert make_router("join_shortest_queue").choose(
            nodes, _StubQuery(0.01), 0.0).index == 0

    def test_pressure_aware_prefers_quiet_node(self):
        nodes = [_StubNode(0, 64, queued=1, pressure=0.8),
                 _StubNode(1, 64, queued=1, pressure=0.1)]
        assert make_router("pressure_aware").choose(
            nodes, _StubQuery(0.01), 0.0).index == 1

    def test_pressure_aware_width_normalises_depth(self):
        # Equal pressure, equal backlog: the wide node has the lower
        # per-width depth and takes the query.
        nodes = [_StubNode(0, 64, queued=8, pressure=0.2),
                 _StubNode(1, 256, queued=8, pressure=0.2)]
        assert make_router("pressure_aware").choose(
            nodes, _StubQuery(0.01), 0.0).index == 1

    def test_pressure_aware_urgency_weighting(self):
        # Tight-QoS queries avoid the pressured node even when it has
        # the shorter queue; loose-QoS queries take the short queue.
        nodes = [_StubNode(0, 64, queued=1, pressure=0.6),
                 _StubNode(1, 64, queued=3, pressure=0.0)]
        router = make_router("pressure_aware")
        assert router.choose(nodes, _StubQuery(0.010), 0.0).index == 1
        assert router.choose(nodes, _StubQuery(0.130), 0.0).index == 0


class TestIncrementalDrive:
    """begin/submit/run_until/drain must replay run() exactly."""

    def test_feeding_matches_run(self, light_stack):
        queries_a = scenario_queries(light_stack.compiled, "poisson", 250, 60,
                                     seed=4, spec=MIX)
        queries_b = scenario_queries(light_stack.compiled, "poisson", 250, 60,
                                     seed=4, spec=MIX)
        engine_a = Engine(light_stack.cost_model,
                          price_cache=light_stack.price_cache)
        done_a = engine_a.run(queries_a,
                              light_stack.make_scheduler("veltair_full"))

        engine_b = Engine(light_stack.cost_model,
                          price_cache=light_stack.price_cache)
        engine_b.begin([], light_stack.make_scheduler("veltair_full"))
        for query in sorted(queries_b, key=lambda q: (q.arrival_s,
                                                      q.query_id)):
            engine_b.run_until(query.arrival_s)
            engine_b.submit(query)
        done_b = engine_b.drain()

        assert len(done_a) == len(done_b) == 60
        finished_a = {q.query_id: q.finished_s for q in done_a}
        finished_b = {q.query_id: q.finished_s for q in done_b}
        assert finished_a == pytest.approx(finished_b)

    def test_submit_never_rewinds_the_clock(self, light_stack):
        queries = scenario_queries(light_stack.compiled, "poisson", 100, 4,
                                   seed=1, spec=MIX)
        engine = Engine(light_stack.cost_model,
                        price_cache=light_stack.price_cache)
        engine.begin([], light_stack.make_scheduler("veltair_full"))
        engine.submit(queries[0])       # something to advance through
        engine.run_until(10.0)
        assert engine.now == 10.0
        heap = list(engine._events)
        late = queries[1]
        late.arrival_s = 1.0  # already in the past
        with pytest.raises(ValueError, match="before the engine clock"):
            engine.submit(late)
        with pytest.raises(ValueError, match="before the engine clock"):
            engine.submit(queries[2], at=9.5)
        # A refused submit leaves the clock and the event heap alone.
        assert engine.now == 10.0
        assert engine._events == heap
        engine.submit(late, at=10.0)  # the present is fine
        engine.drain()
        assert late.started_s == 10.0

    def test_drive_requires_scheduler(self, light_stack):
        engine = Engine(light_stack.cost_model)
        with pytest.raises(RuntimeError):
            engine.drain()

    def test_quantize_pressure(self, light_stack):
        engine = Engine(light_stack.cost_model, pressure_quantum=0.05)
        assert engine.quantize_pressure(0.237) == pytest.approx(0.25)
        assert engine.quantize_pressure(0.0) == 0.0
        assert engine.quantize_pressure(5.0) == 1.0
        coarse = Engine(light_stack.cost_model, pressure_quantum=0.2)
        assert coarse.quantize_pressure(0.237) == pytest.approx(0.2)

    def test_planning_pressure_uses_engine_quantum(self, light_stack):
        """Satellite fix: no more hard-coded round(estimate, 2)."""
        scheduler = VeltairScheduler(light_stack.cost_model,
                                     light_stack.profiles, proxy=None)
        engine = Engine(light_stack.cost_model, pressure_quantum=0.2)
        engine.pressure = lambda exclude_task=None, planning=False: 0.237
        assert scheduler.planning_pressure(engine) == pytest.approx(0.2)


class TestClusterServe:
    def test_reconciles_exactly(self, light_stack):
        cluster = Cluster(light_stack, homogeneous(2),
                          router="pressure_aware")
        report = cluster.report(MIX, qps=300, count=80, seed=3)
        assert report.offered == 80
        assert report.shed == 0
        assert report.admitted == sum(n.assigned for n in report.nodes)
        assert report.completed == sum(n.completed for n in report.nodes)
        assert report.satisfied == sum(n.satisfied for n in report.nodes)
        assert report.offered == report.admitted + report.shed
        assert report.completed == 80  # nothing lost without admission

    def test_round_robin_splits_evenly(self, light_stack):
        cluster = Cluster(light_stack, homogeneous(2), router="round_robin")
        report = cluster.report(MIX, qps=300, count=81, seed=3)
        assigned = sorted(n.assigned for n in report.nodes)
        assert assigned == [40, 41]
        assert report.load_imbalance == pytest.approx(41 / 40.5)

    def test_deterministic_per_seed(self, light_stack):
        cluster = Cluster(light_stack, homogeneous(2),
                          router="pressure_aware")
        first = cluster.report(MIX, qps=300, count=60, seed=9)
        second = cluster.report(MIX, qps=300, count=60, seed=9)
        assert first == second

    def test_pressure_aware_respects_width(self, light_stack):
        spec = ClusterSpec(name="het", nodes=(
            NodeSpec(name="small", device=EDGE_NODE_32),
            NodeSpec(name="big", device=THREADRIPPER_3990X)))
        cluster = Cluster(light_stack, spec, router="pressure_aware")
        report = cluster.report(MIX, qps=350, count=120, seed=3)
        by_name = {n.name: n for n in report.nodes}
        # 2/3 of the cores live on the big node; a width-aware router
        # must send it clearly more than the 50% a blind split would.
        assert by_name["big"].assigned > 0.55 * report.admitted

    def test_shared_artifacts_single_compile(self, light_stack):
        spec = ClusterSpec(name="het", nodes=(
            NodeSpec(name="small", device=EDGE_NODE_32),
            NodeSpec(name="big", device=THREADRIPPER_3990X)))
        Cluster(light_stack, spec).report(MIX, qps=200, count=40, seed=3)
        assert light_stack.artifact_builds == 1
        # Per-CPU runtimes are memoised and the reference CPU reuses the
        # stack's own cache; foreign CPUs get their own (prices are
        # bound to one cost model and cannot be shared across widths).
        reference = light_stack.runtime_for(light_stack.cpu)
        assert reference.price_cache is light_stack.price_cache
        edge = light_stack.runtime_for(EDGE_NODE_32)
        assert edge is light_stack.runtime_for(EDGE_NODE_32)
        assert edge.price_cache is not light_stack.price_cache
        assert edge.profiles.keys() == light_stack.profiles.keys()

    def test_serve_rejects_empty_stream(self, light_stack):
        with pytest.raises(ValueError):
            Cluster(light_stack, homogeneous(1)).serve([])


class TestAdmission:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_fleet_pressure=1.5)
        with pytest.raises(ValueError):
            AdmissionPolicy(mode="panic")
        with pytest.raises(ValueError):
            AdmissionPolicy(defer_s=0.0)

    def test_shed_mode_bounds_backlog(self, light_stack):
        policy = AdmissionPolicy(max_fleet_pressure=1.0,
                                 max_outstanding_per_core=0.02,
                                 mode="shed")
        cluster = Cluster(light_stack, homogeneous(1),
                          router="round_robin", admission=policy)
        report = cluster.report(MIX, qps=800, count=120, seed=3)
        assert report.shed > 0
        assert report.admitted >= 1  # an idle fleet always admits
        assert report.offered == report.admitted + report.shed
        assert report.completed == report.admitted
        assert report.shed_rate == pytest.approx(report.shed / 120)
        # Shed queries are QoS violations: satisfaction is measured
        # against everything offered, not just what got in.
        assert report.satisfaction_rate <= report.satisfied / max(
            1, report.admitted)

    def test_defer_mode_retries_then_sheds(self, light_stack):
        policy = AdmissionPolicy(max_fleet_pressure=1.0,
                                 max_outstanding_per_core=0.02,
                                 mode="defer", defer_s=0.005,
                                 max_defers=2)
        cluster = Cluster(light_stack, homogeneous(1),
                          router="round_robin", admission=policy)
        report = cluster.report(MIX, qps=800, count=120, seed=3)
        assert report.deferrals > 0
        assert report.offered == report.admitted + report.shed
        assert report.completed == report.admitted

    def test_fleet_pressure_core_weighted(self):
        nodes = [_StubNode(0, 64, pressure=1.0),
                 _StubNode(1, 192, pressure=0.0)]
        assert fleet_pressure(nodes) == pytest.approx(0.25)

    def test_node_offered_share_divides_by_admitted(self, light_stack):
        """Satellite fix: per-node offered QPS shares what was admitted.

        Shed queries never reach a node; dividing a node's share by the
        full offered count under-stated every node's load whenever the
        controller shed, and the per-node rates no longer summed to the
        fleet rate.
        """
        policy = AdmissionPolicy(max_fleet_pressure=1.0,
                                 max_outstanding_per_core=0.02,
                                 mode="shed")
        cluster = Cluster(light_stack, homogeneous(2),
                          router="round_robin", admission=policy)
        report = cluster.report(MIX, qps=800, count=120, seed=3)
        assert report.shed > 0
        assert sum(n.report.offered_qps for n in report.nodes) == (
            pytest.approx(report.offered_qps))

    def test_defer_accounting_and_reoffer_ordering(self, light_stack,
                                                   monkeypatch):
        """Defer -> shed bookkeeping plus the offer heap's ordering.

        Every decision the controller makes is recorded: deferred
        queries must be re-offered exactly ``defer_s`` later with the
        attempt count bumped, interleaved in time order with later
        arrivals, and the ``deferrals``/``shed`` counters must equal
        the recorded decision stream.
        """
        from repro.cluster.admission import AdmissionController

        log = []

        class Recorder(AdmissionController):
            def decide(self, nodes, query, attempts):
                decision = super().decide(nodes, query, attempts)
                log.append((query.query_id, attempts, decision))
                return decision

        instances = []

        class Tracked(Recorder):
            def __init__(self, policy):
                super().__init__(policy)
                instances.append(self)

        monkeypatch.setattr("repro.cluster.fleet.AdmissionController",
                            Tracked)
        policy = AdmissionPolicy(max_fleet_pressure=1.0,
                                 max_outstanding_per_core=0.02,
                                 mode="defer", defer_s=0.005,
                                 max_defers=2)
        cluster = Cluster(light_stack, homogeneous(1),
                          router="round_robin", admission=policy)
        report = cluster.report(MIX, qps=800, count=120, seed=3)
        (controller,) = instances

        decisions = [entry[2] for entry in log]
        assert report.deferrals == controller.deferrals == (
            decisions.count("defer"))
        assert report.shed == controller.shed == decisions.count("shed")
        assert report.admitted == controller.admitted == (
            decisions.count("admit"))
        assert report.offered == report.admitted + report.shed

        # Per-query offer chains: attempts count 0, 1, ... and stop at
        # max_defers; only a defer extends the chain.
        by_query: dict[int, list] = {}
        for query_id, attempts, decision in log:
            by_query.setdefault(query_id, []).append((attempts, decision))
        assert any(len(chain) > 1 for chain in by_query.values())
        for chain in by_query.values():
            assert [a for a, _ in chain] == list(range(len(chain)))
            for _, decision in chain[:-1]:
                assert decision == "defer"
            assert len(chain) - 1 <= policy.max_defers
            if len(chain) - 1 == policy.max_defers:
                assert chain[-1][1] in ("admit", "shed")

    def test_reoffers_interleave_with_later_arrivals(self, light_stack,
                                                     monkeypatch):
        """A deferred re-offer is decided at arrival + k * defer_s, in
        time order with arrivals landing inside the deferral window."""
        from repro.cluster.admission import AdmissionController

        offers = []

        class Recorder(AdmissionController):
            def decide(self, nodes, query, attempts):
                offers.append((query.arrival_s
                               + attempts * self.policy.defer_s,
                               query.query_id, attempts))
                return super().decide(nodes, query, attempts)

        monkeypatch.setattr("repro.cluster.fleet.AdmissionController",
                            Recorder)
        policy = AdmissionPolicy(max_fleet_pressure=1.0,
                                 max_outstanding_per_core=0.02,
                                 mode="defer", defer_s=0.005,
                                 max_defers=3)
        cluster = Cluster(light_stack, homogeneous(1),
                          router="round_robin", admission=policy)
        cluster.report(MIX, qps=800, count=120, seed=3)

        times = [time for time, _, _ in offers]
        assert times == sorted(times)
        deferred = [entry for entry in offers if entry[2] > 0]
        assert deferred, "the overload must actually defer something"


class TestClusterExperiments:
    def test_sweep_shapes_and_determinism(self, light_stack):
        serial = sweep_cluster_qps(light_stack, homogeneous(2), MIX,
                                   [150.0, 300.0], count=40, seed=3)
        assert [r.offered_qps for r in serial] == [150.0, 300.0]
        again = sweep_cluster_qps(light_stack, homogeneous(2), MIX,
                                  [150.0, 300.0], count=40, seed=3)
        assert serial == again

    def test_capacity_returns_passing_report(self, light_stack):
        result = cluster_capacity(light_stack, homogeneous(2), MIX,
                                  count=40, router="pressure_aware",
                                  target=0.8, low_qps=20.0,
                                  high_qps=160.0, tolerance_qps=80.0,
                                  seed=3)
        assert result.qps >= 20.0
        assert result.passed and result.label == f"{result.qps:.0f}q"
        assert result.report.satisfaction_rate >= 0.8
        assert result.router == "pressure_aware"

    def test_capacity_flags_a_failed_floor(self, light_stack):
        result = cluster_capacity(light_stack, homogeneous(1), MIX,
                                  count=40, router="round_robin",
                                  low_qps=5000.0, high_qps=6000.0, seed=3)
        # The floor itself misses the target: the search reports the
        # floor, and the result says it is not a capacity.
        assert result.qps == 5000.0
        assert result.report.satisfaction_rate < result.target
        assert not result.passed and result.label == "<floor"


#: The 2:1 light mix of the single-node/one-node-fleet differential.
MIX_2_1 = WorkloadSpec(name="mix2_1", entries=(("mobilenet_v2", 2.0),
                                               ("googlenet", 1.0)))


_CHAIN = ScenarioSpec(name="one-node-chain",
                      pipeline=PipelineSpec(
                          name="mn-gn", stages=("mobilenet_v2", "googlenet")))
_LOOP = ScenarioSpec(name="one-node-loop", workload=MIX_2_1,
                     closed_loop=ClosedLoopSpec(tenants=3, concurrency=2,
                                                think_s=0.005))


def _reference_stream(stack, stream, policy="veltair_full") -> list:
    """Oracle: one bare engine whose completion hook submits the work.

    The single-node request-model driver written inline: a pipeline
    hand-off or closed-loop follow-up goes straight into the same
    engine at the completion instant.  Returns every issued query.
    """
    stage_owner = {}
    tenants = {tenant.session: tenant for tenant in stream.tenants}
    issued = list(stream.queries)

    def hook(engine, query):
        owner = (stage_owner.pop((query.query_id, query.stage), None)
                 if query.stage is not None else None)
        if owner is not None:
            owner.next_stage = query.stage + 1
            if owner.next_stage >= len(owner.stages):
                owner.finished_s = engine.now
            else:
                nxt = owner.stages[owner.next_stage]
                nxt.arrival_s = engine.now
                stage_owner[(nxt.query_id, nxt.stage)] = owner
                issued.append(nxt)
                engine.submit(nxt)
            return
        tenant = tenants.get(query.session)
        if tenant is not None:
            tenant.observe(query)
            follow = tenant.next_request(engine.now)
            if follow is not None:
                issued.append(follow)
                engine.submit(follow)

    for pipeline in stream.pipelines:
        first = pipeline.stages[0]
        stage_owner[(first.query_id, first.stage)] = pipeline
        issued.append(first)
    for tenant in stream.tenants:
        issued.extend(tenant.initial_requests())
    engine = Engine(stack.cost_model, price_cache=stack.price_cache,
                    on_complete=hook)
    engine.begin(list(issued), stack.make_scheduler(policy))
    engine.drain()
    return issued


def _bare_report(stack, policy, qps):
    """One bare engine serving the 60-query MIX_2_1 stream at ``qps``."""
    queries = scenario_queries(stack.compiled, "poisson", qps, 60, seed=5,
                               spec=MIX_2_1)
    engine = Engine(stack.cost_model, price_cache=stack.price_cache)
    return summarize(engine.run(queries, stack.make_scheduler(policy)),
                     engine.metrics, qps)


def _per_query(queries) -> list[tuple]:
    return sorted((q.query_id, -1 if q.stage is None else q.stage,
                   q.arrival_s, q.started_s, q.finished_s, q.core_seconds)
                  for q in queries)


class TestOneNodeFleet:
    """A one-node fleet reproduces a single node exactly."""

    @pytest.mark.parametrize("scenario, qps, count", [
        (_CHAIN, 5.0, 12),      # hand-offs far from the next arrival
        (_CHAIN, 300.0, 40),    # hand-offs amid a busy arrival stream
        (_LOOP, 0.0, 30),       # closed loop, think time between issues
    ], ids=["chain-low", "chain-high", "closed-loop"])
    def test_stream_equals_bare_engine(self, light_stack, scenario, qps,
                                       count):
        def draw():
            return scenario.stream(light_stack.compiled, qps=qps,
                                   count=count, seed=7)

        expected = _per_query(_reference_stream(light_stack, draw()))
        fleet = Cluster(light_stack, homogeneous(1), router="round_robin")
        fleet.serve_stream(draw())
        assert _per_query(fleet.last_offered) == expected

    @pytest.mark.parametrize("policy", ["veltair_full", "layerwise"])
    def test_report_equals_single_node(self, light_stack, policy):
        fleet = Cluster(light_stack, homogeneous(1, policy=policy),
                        router="round_robin")
        for qps in (100.0, 300.0):
            node = _bare_report(light_stack, policy, qps)
            pooled = fleet.report(MIX_2_1, qps, 60, seed=5)
            assert pooled.nodes[0].report == node
            assert pooled.satisfaction_rate == node.satisfaction_rate
            assert pooled.average_latency_s == node.average_latency_s

    def test_capacity_equals_single_node(self, light_stack):
        search = dict(target=0.95, low_qps=20.0, high_qps=400.0,
                      tolerance_qps=40.0)
        node_qps, node = max_qps_at_satisfaction(
            lambda qps: _bare_report(light_stack, "veltair_full", qps),
            **search)
        fleet = cluster_capacity(light_stack, homogeneous(1), MIX_2_1,
                                 count=60, router="round_robin", seed=5,
                                 **search)
        assert node.satisfaction_rate >= 0.95  # a real pass
        assert fleet.passed
        assert fleet.qps == node_qps


class TestCausalFleet:
    """Hand-offs made mid-advance reach the fleet at their own instant."""

    def test_pipeline_stages_start_at_handoff(self, chain_stack):
        stream = get_scenario("vision_pipeline").stream(
            chain_stack.compiled, qps=2.0, count=60, seed=1)
        Cluster(chain_stack, homogeneous(2), router="pressure_aware") \
            .serve_stream(stream, offered_qps=2.0)
        waits = []
        for pipeline in stream.pipelines:
            assert pipeline.done and not pipeline.failed
            for upstream, stage in zip(pipeline.stages,
                                       pipeline.stages[1:]):
                assert stage.arrival_s == upstream.finished_s
                assert stage.started_s >= stage.arrival_s
            stage1 = pipeline.stages[1]
            waits.append(stage1.started_s - stage1.arrival_s)
        # At 2 QPS the fleet is nearly idle between chains: a stage-1
        # query starts the instant its hand-off lands.
        assert sorted(waits)[len(waits) // 2] == 0.0


def _sweep_point(stack, kind: str, seed: int, scenario=None):
    if kind == "node":
        return FleetSweep(stack, homogeneous(1), MIX, 30,
                          router="round_robin", seed=seed,
                          scenario=scenario)
    return FleetSweep(stack, homogeneous(2), MIX, 30, seed=seed,
                      scenario=scenario)


class TestSweepPrimitive:
    @pytest.mark.parametrize("kind", ["node", "fleet"])
    def test_pool_rejects_a_different_point(self, light_stack, kind):
        point = _sweep_point(light_stack, kind, seed=3)
        with sweep_pool(point, 2) as pool:
            if pool is None:
                pytest.skip("platform has no fork start method")
            with pytest.raises(ValueError, match="different sweep point"):
                sweep(_sweep_point(light_stack, kind, seed=4), [100.0],
                      pool=pool)

    @pytest.mark.parametrize("kind", ["node", "fleet"])
    def test_pool_results_equal_serial(self, light_stack, kind):
        point = _sweep_point(light_stack, kind, seed=3)
        loads = [100.0, 200.0, 300.0]
        serial = sweep(point, loads)
        # An equal point (built anew, scenario by name) reuses the pool.
        equal = _sweep_point(light_stack, kind, seed=3, scenario="poisson")
        with sweep_pool(point, 2) as pool:
            pooled = sweep(equal, loads, pool=pool)
            again = sweep(point, loads[::-1], pool=pool)
        assert pooled == serial
        assert again == serial[::-1]
