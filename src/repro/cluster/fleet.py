"""The fleet simulation driver: N node engines, one global event order.

:class:`Cluster` is the only way anything is served — a single node is
a one-node ``round_robin`` fleet, which is what
:meth:`ServingStack.run <repro.serving.server.ServingStack.run>` builds.
It builds one :class:`~repro.runtime.engine.Engine` + policy per node
over the stack's *shared* artifacts (one compile pass fleet-wide), then
co-simulates them in one conservative lockstep.  Two sources of events
exist: the serve heap (offers, autoscale ticks, node joins) and each
node engine's own heap (arrivals, block finishes, batch timers).  Every
iteration of the drive loop takes the earliest of them:

* engine events first, ties included — only the engines due at that
  instant run to it (:meth:`Engine.run_until`), so a completion hook's
  pipeline hand-off or closed-loop follow-up enters the serve heap at
  its own instant, before any later event anywhere in the fleet;
* otherwise the serve event: every active node is brought to its
  instant, the admission controller rules on an offer, the router picks
  a node from live fleet state, and the query is injected into that
  node's event loop (:meth:`Engine.submit`) — so routing decisions see
  exactly the node states a real front-end would observe at that
  moment, not a post-hoc assignment.

Fleet membership is dynamic: with an
:class:`~repro.cluster.autoscale.AutoscalePolicy` the serve heap
carries control ticks, provisions nodes from the policy's template
(with a warm-up delay before they join the routing set), and drains
nodes out (they leave the routing set, finish their in-flight work,
then retire and stop being driven).  Routers and admission only ever
see the *live* membership; the scaling timeline and per-node lifecycle
land in the :class:`~repro.cluster.metrics.ClusterReport`.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools

from repro.cluster.admission import (
    ADMIT,
    DEFER,
    AdmissionController,
    AdmissionPolicy,
)
from repro.cluster.autoscale import (
    DRAIN,
    DRAINING,
    JOIN,
    LIVE,
    PROVISION,
    RETIRE,
    RETIRED,
    WARMING,
    AutoscaleController,
    AutoscalePolicy,
    ScalingEvent,
)
from repro.cluster.metrics import (
    ClusterReport,
    pipeline_rollup,
    rollup,
    session_reports,
)
from repro.cluster.router import Router, make_router
from repro.cluster.spec import ClusterSpec, NodeSpec
from repro.interference.proxy import estimate_system_pressure
from repro.runtime.engine import Engine
from repro.runtime.tasks import Query
from repro.telemetry.tracer import FLEET_SIGNAL_FIELDS
from repro.serving.metrics import summarize
from repro.serving.server import ServingStack
from repro.serving.workload import WorkloadSpec, scenario_queries

#: Serve-loop event kinds (never compared: sequence numbers are unique).
_OFFER = "offer"
_TICK = "tick"
_JOIN = "join"
#: Next-event time of an idle or retired node.
_IDLE = float("inf")


class ClusterNode:
    """One fleet member: an engine + local policy over shared artifacts.

    ``tracer`` (a :class:`repro.telemetry.Tracer`) is bound to the
    node's name, so this node's block/query spans and scheduler events
    land in the shared fleet stream already stamped with the node.
    """

    def __init__(self, index: int, spec: NodeSpec, stack: ServingStack,
                 tracer=None) -> None:
        self.index = index
        self.spec = spec
        self.runtime = stack.runtime_for(spec.device)
        self.engine = Engine(self.runtime.cost_model,
                             price_cache=self.runtime.price_cache,
                             tracer=(tracer.bind(spec.name)
                                     if tracer is not None else None),
                             batching=spec.batching)
        self.scheduler = stack.make_scheduler(spec.policy,
                                              runtime=self.runtime)
        self.engine.begin([], self.scheduler)
        #: Queries the router assigned here.
        self.assigned = 0
        #: Lifecycle (see :mod:`repro.cluster.autoscale`): static fleet
        #: members are live for the whole run; autoscaled nodes move
        #: warming -> live -> draining -> retired.
        self.state = LIVE
        self.provisioned_s = 0.0
        self.joined_s: float | None = None
        self.drain_started_s: float | None = None
        self.retired_s: float | None = None
        #: Completions already fed to the autoscale SLO window.
        self._slo_cursor = 0

    @property
    def cores(self) -> int:
        return self.spec.device.cores

    @property
    def width(self) -> int:
        """The node's parallel width (cores or SMs) — routing units."""
        return self.spec.device.parallel_width

    @property
    def device_kind(self) -> str:
        return self.spec.device_kind

    @property
    def node_seconds(self) -> float:
        """Provision-to-retire span — what this node's capacity cost.

        Warm-up counts (capacity is paid for from the moment it is
        requested); zero until the run's end-of-serve bookkeeping has
        stamped ``retired_s``.
        """
        if self.retired_s is None:
            return 0.0
        return max(0.0, self.retired_s - self.provisioned_s)

    def pressure_estimate(self) -> float:
        """This node's interference estimate — the routing signal.

        The same estimation contract the node's own adaptive scheduler
        uses (:func:`estimate_system_pressure`), over the proxy fitted
        for *this node's* CPU spec by the stack's runtime factory.
        """
        return estimate_system_pressure(self.engine, self.runtime.proxy)


class Cluster:
    """A reusable fleet harness: spec + router + admission over one stack.

    Engines are per-``serve`` (fresh nodes each call), so one
    ``Cluster`` can drive a whole QPS sweep.  Pass ``router`` as a
    registry name (a fresh router is built per serve) or as a
    :class:`Router` instance to keep custom routing state across calls.
    An :class:`AutoscalePolicy` turns on the feedback control plane:
    ``spec`` then describes the *initial* fleet and membership follows
    load between the policy's ``min_nodes`` and ``max_nodes``.
    """

    def __init__(self, stack: ServingStack, spec: ClusterSpec,
                 router: str | Router = "pressure_aware",
                 admission: AdmissionPolicy | None = None,
                 autoscale: AutoscalePolicy | None = None) -> None:
        self.stack = stack
        self.spec = spec
        self.router = router
        self.admission = admission
        self.autoscale = autoscale
        #: Every node of the most recent :meth:`serve`, in provision
        #: order, retired ones included (debugging handle).
        self.last_nodes: list[ClusterNode] | None = None
        #: The most recent serve's autoscale controller (tick signals).
        self.last_autoscale: AutoscaleController | None = None
        #: Every stage-level query the most recent serve offered, with
        #: realized arrival times — hand-offs and closed-loop follow-ups
        #: included.  ``record_trace(cluster.last_offered, ...)``
        #: captures a feedback-shaped stream for open-loop replay.
        self.last_offered: list[Query] | None = None

    def serve(self, queries: list[Query],
              offered_qps: float | None = None,
              tracer=None) -> ClusterReport:
        """Route and co-simulate one query stream; returns the rollup.

        ``tracer`` (a :class:`repro.telemetry.Tracer`) records the whole
        fleet into one stream: per-node engine spans, routing choices
        (with per-node scores for score-based routers), admission
        verdicts, the scaling timeline, and the autoscale controller's
        per-tick ``fleet.signals`` counters.  Observational only — the
        rollup is bit-identical with tracing on or off.
        """
        return self._serve(queries, offered_qps=offered_qps, tracer=tracer)

    def serve_stream(self, stream, offered_qps: float | None = None,
                     tracer=None) -> ClusterReport:
        """Serve a :class:`repro.workloads.RequestStream` fleet-wide.

        The request-model twin of :meth:`serve`, on the same drive loop:
        engines advance in global event order, so pipeline stage *k+1*
        is offered (through admission and routing, like any query) the
        instant stage *k* completes, and closed-loop tenants issue their
        next request at each completion or shed — before any later event
        on any node.  A *deferred* pipeline stage re-offers as usual; a
        *shed* stage fails the whole pipeline's QoS and no later stage
        runs.  A one-node ``round_robin`` fleet is the single-node
        driver.  The returned report carries
        :attr:`ClusterReport.pipelines` / :attr:`ClusterReport.sessions`
        rollups.
        """
        initial: list[Query] = list(stream.queries)
        initial.extend(pipeline.stages[0] for pipeline in stream.pipelines)
        for tenant in stream.tenants:
            initial.extend(tenant.initial_requests())
        return self._serve(initial, offered_qps=offered_qps, tracer=tracer,
                           stream=stream)

    def _serve(self, queries: list[Query],
               offered_qps: float | None = None,
               tracer=None, stream=None) -> ClusterReport:
        """The drive loop: one event per iteration, in global time order.

        An engine event that comes first — or ties with the serve
        heap's head — steps only the engines due at that instant;
        otherwise the serve heap's head (offer, tick or join) is
        handled.  The loop ends when both are exhausted.
        """
        if not queries:
            raise ValueError("cannot serve an empty stream")
        run = _ServeRun(self, queries, tracer, stream)
        handlers = {_OFFER: run.offer, _TICK: run.tick, _JOIN: run.join}
        events, next_at = run.events, run.next_at
        while True:
            due_s = min(next_at)
            if events and events[0][0] < due_s:
                now, _, kind, payload = heapq.heappop(events)
                run.advance(now)
                handlers[kind](now, payload)
            elif due_s < _IDLE:
                run.step(due_s)
            else:
                break
        self.last_nodes = run.all_nodes
        self.last_autoscale = run.scaler
        self.last_offered = run.offered_log
        return run.report(offered_qps)

    def report(self, spec: WorkloadSpec, qps: float, count: int,
               seed: int | None = None, scenario=None,
               tracer=None) -> ClusterReport:
        """Generate a stream, serve it fleet-wide, summarise.

        Default arrivals are the stationary Poisson stream; a
        ``scenario`` (:class:`repro.workloads.ScenarioSpec` or
        registered name) swaps in any trace-driven shape at mean rate
        ``qps``.  On a one-node fleet, ``report.nodes[0].report`` holds
        the node-level fields (conflict rate, grows, core usage).
        ``tracer`` records the serve (see :meth:`serve`).
        """
        queries = scenario_queries(
            self.stack.compiled, scenario, qps, count,
            seed=self.stack.seed if seed is None else seed, spec=spec)
        return self.serve(queries, offered_qps=qps, tracer=tracer)


class _ServeRun:
    """One serve's mutable state and its per-event-kind handlers.

    :meth:`Cluster._serve` owns the drive loop and hands each event to
    :meth:`step` (engine events), :meth:`offer`, :meth:`tick` or
    :meth:`join`; :meth:`handoff` is the node engines' completion hook
    for request-model streams.
    """

    def __init__(self, cluster: Cluster, queries: list[Query], tracer,
                 stream) -> None:
        self.cluster = cluster
        self.tracer = tracer
        self.stream = stream
        pipelines = stream.pipelines if stream is not None else ()
        tenants = stream.tenants if stream is not None else ()
        #: In-flight pipelines keyed by their pending stage's (pipeline
        #: id, stage index) — unique per stage and stable across runs,
        #: unlike object identity.  Stage queries carry the pipeline id.
        self.stage_owner = {(pipeline.pipeline_id, 0): pipeline
                            for pipeline in pipelines}
        self.tenants = {tenant.session: tenant for tenant in tenants}
        #: Node engines' completion hook (request-model streams only).
        self.on_complete = self.handoff if stream is not None else None
        nodes = [ClusterNode(index, node_spec, cluster.stack, tracer=tracer)
                 for index, node_spec in enumerate(cluster.spec.nodes)]
        self.router = (cluster.router if isinstance(cluster.router, Router)
                       else make_router(cluster.router))
        #: Score-based routers publish per-node scores when this is set.
        self.router.tracer = tracer
        self.controller = (AdmissionController(cluster.admission)
                           if cluster.admission is not None else None)
        self.scaler = (AutoscaleController(cluster.autoscale)
                       if cluster.autoscale is not None else None)

        self.start_s = min(query.arrival_s for query in queries)
        for node in nodes:
            node.provisioned_s = self.start_s
            node.joined_s = self.start_s
            node.engine.on_complete = self.on_complete
        #: Every node ever provisioned, in provision order (ascending
        #: ``index``); membership state lives on the nodes.
        self.all_nodes = list(nodes)
        #: Each node's next engine-event time, by node index.  Only a
        #: step or a submit changes an engine's next event, so only
        #: those refresh it; retired nodes stay at ``_IDLE``.
        self.next_at = [_IDLE] * len(nodes)
        #: The routing set: live nodes, ascending index (provisioned
        #: nodes join strictly after every earlier join).
        self.routable = list(nodes)
        self.timeline: list[ScalingEvent] = []
        self.peak_live = len(self.routable)
        self.auto_names = itertools.count(1)

        # Serve heap: offers seeded with every arrival (deferred queries
        # re-pushed at their re-offer instant with the attempt count
        # bumped), plus autoscale control ticks and node-join events.
        self.seq = itertools.count()
        self.events = [(query.arrival_s, next(self.seq), _OFFER, (0, query))
                       for query in sorted(queries,
                                           key=lambda q: (q.arrival_s,
                                                          q.query_id))]
        heapq.heapify(self.events)
        #: Offers not yet resolved.
        self.pending = len(self.events)
        #: Every stage-level query ever offered, in offer order.
        self.offered_log = list(queries)
        if self.scaler is not None:
            self.push(self.start_s + cluster.autoscale.tick_s, _TICK, None)
        self.shed: list[Query] = []
        self.last_advance = float("-inf")

    def push(self, at: float, kind: str, payload) -> None:
        heapq.heappush(self.events, (at, next(self.seq), kind, payload))

    def issue(self, query: Query, at: float) -> None:
        """Offer a hand-off or follow-up through the serve heap."""
        self.offered_log.append(query)
        self.push(at, _OFFER, (0, query))
        self.pending += 1

    # ------------------------------------------------------------------
    # engine events

    def refresh(self, node: ClusterNode) -> None:
        """Re-read a node's next engine-event time after it changed."""
        at = node.engine.next_event_s()
        self.next_at[node.index] = _IDLE if at is None else at

    def step(self, now: float) -> None:
        """Run the engines due at ``now`` — and only those — to ``now``.

        Only a stepped node can empty, so a draining node retires here,
        and retirements land in time order like every other event.
        """
        next_at = self.next_at
        for node in self.all_nodes:
            if next_at[node.index] == now:
                node.engine.run_until(now)
                self.refresh(node)
                if node.state == DRAINING and node.engine.outstanding == 0:
                    self.retire(node)

    def handoff(self, engine: Engine, query: Query) -> None:
        """Completion hook: pipeline hand-off + closed-loop issue.

        Fires inside a node engine's drive loop; ``engine.now`` is the
        completion instant.  New offers go through the *serve* heap —
        admission and routing see them like any arrival.
        """
        owner = self.stage_owner.pop((query.query_id, query.stage), None)
        if owner is None:
            self.follow_up(query, engine.now)
            return
        owner.next_stage = query.stage + 1
        if owner.next_stage >= len(owner.stages):
            owner.finished_s = engine.now
            return
        nxt = owner.stages[owner.next_stage]
        nxt.arrival_s = engine.now
        self.stage_owner[(nxt.query_id, nxt.stage)] = owner
        self.issue(nxt, engine.now)

    def follow_up(self, query: Query, now: float, shed: bool = False) -> None:
        """Hand control back to the query's closed-loop tenant, if any."""
        tenant = self.tenants.get(query.session)
        if tenant is None:
            return
        tenant.observe(query, shed=shed)
        follow = tenant.next_request(now)
        if follow is not None:
            self.issue(follow, follow.arrival_s)

    # ------------------------------------------------------------------
    # serve-heap events

    def advance(self, now: float) -> None:
        """Bank every active node's progress up to a serve event.

        No engine event is due at or before ``now`` (the loop steps
        those first), so this only banks the progress routers observe
        and leaves :attr:`next_at` intact; once per distinct instant,
        as re-offers and simultaneous arrivals share it.
        """
        if now > self.last_advance:
            for node in self.all_nodes:
                if node.state != RETIRED:
                    node.engine.run_until(now)
            self.last_advance = now

    def offer(self, now: float, payload: tuple[int, Query]) -> None:
        """Admit (or defer, or shed) one offer and route it to a node."""
        self.pending -= 1
        attempts, query = payload
        tracer = self.tracer
        if self.controller is not None:
            decision = self.controller.decide(self.routable, query, attempts)
            if decision == DEFER:
                self.push(now + self.controller.policy.defer_s, _OFFER,
                          (attempts + 1, query))
                self.pending += 1
                if tracer is not None:
                    tracer.event("admission.defer", now, cat="cluster",
                                 qid=query.query_id,
                                 args={"attempts": attempts})
                return
            if decision != ADMIT:
                self.reject(now, attempts, query)
                return
        node = self.router.choose(self.routable, query, now)
        if tracer is not None:
            args = {"node": node.spec.name, "attempts": attempts}
            if self.router.last_scores is not None:
                args["scores"] = self.router.last_scores
                self.router.last_scores = None
            tracer.event("route", now, cat="cluster", node=node.spec.name,
                         qid=query.query_id, args=args)
        node.engine.submit(query, at=now)
        node.assigned += 1
        self.refresh(node)

    def reject(self, now: float, attempts: int, query: Query) -> None:
        """Account a shed offer: it fails its pipeline or frees a slot."""
        self.shed.append(query)
        tracer = self.tracer
        if tracer is not None:
            tracer.event("admission.shed", now, cat="cluster",
                         qid=query.query_id, args={"attempts": attempts})
        owner = self.stage_owner.pop((query.query_id, query.stage), None)
        if owner is None:
            # Shedding hands control back to a closed-loop tenant too —
            # its next request still issues, so a shedding fleet sees
            # reduced load, not a frozen session.
            self.follow_up(query, now, shed=True)
            return
        # A shed stage fails the whole pipeline: no later stage runs,
        # its QoS counts as missed.
        owner.shed_stage = query.stage
        if tracer is not None:
            tracer.event("pipeline.failed", now, cat="pipeline",
                         qid=owner.pipeline_id, args={"stage": query.stage})

    def tick(self, now: float, _payload) -> None:
        """One autoscale control tick; re-armed while work may arrive.

        Work may arrive while offers are pending, a pipeline is in
        flight, or a closed-loop tenant has requests left to issue.
        """
        if (self.pending <= 0 and not self.stage_owner
                and not any(t.remaining for t in self.tenants.values())):
            return
        scaler, policy = self.scaler, self.cluster.autoscale
        for node in self.all_nodes:
            completed = node.engine.completed
            if node._slo_cursor < len(completed):
                scaler.observe_completions(completed[node._slo_cursor:])
                node._slo_cursor = len(completed)
        warming = sum(1 for node in self.all_nodes if node.state == WARMING)
        delta = scaler.decide(now, self.routable, warming)
        if delta > 0:
            for _ in range(delta):
                name = f"{policy.template.name}-{next(self.auto_names)}"
                node = self.provision(name, now)
                self.timeline.append(ScalingEvent(
                    time_s=now, action=PROVISION, node=name,
                    live_nodes=len(self.routable), reason=scaler.reason()))
                self.push(now + policy.warmup_s, _JOIN, node)
        elif delta < 0:
            # Drain the emptiest live node; prefer the youngest on ties
            # (scale-in releases the most recently acquired capacity).
            victim = min(self.routable,
                         key=lambda n: (n.engine.outstanding, -n.index))
            self.routable.remove(victim)
            victim.state = DRAINING
            victim.drain_started_s = now
            self.timeline.append(ScalingEvent(
                time_s=now, action=DRAIN, node=victim.spec.name,
                live_nodes=len(self.routable), reason=scaler.reason()))
            if victim.engine.outstanding == 0:
                self.retire(victim)
        self.push(now + policy.tick_s, _TICK, None)

    def join(self, now: float, node: ClusterNode) -> None:
        """A warmed-up node enters the routing set."""
        node.state = LIVE
        node.joined_s = now
        self.routable.append(node)
        self.peak_live = max(self.peak_live, len(self.routable))
        self.timeline.append(ScalingEvent(
            time_s=now, action=JOIN, node=node.spec.name,
            live_nodes=len(self.routable)))

    # ------------------------------------------------------------------
    # membership

    def provision(self, name: str, now: float) -> ClusterNode:
        """A warming node from the autoscale template, joined later.

        Reuses ``stack.runtime_for`` + the artifact store contract:
        spin-up re-profiles for the template's device (memoised after
        the first node of a width) but never recompiles.
        """
        spec = dataclasses.replace(self.cluster.autoscale.template,
                                   name=name)
        node = ClusterNode(len(self.all_nodes), spec, self.cluster.stack,
                           tracer=self.tracer)
        node.engine.on_complete = self.on_complete
        node.state = WARMING
        node.provisioned_s = now
        self.all_nodes.append(node)
        self.next_at.append(_IDLE)
        return node

    def retire(self, node: ClusterNode) -> None:
        """Mark an emptied draining node retired at its last finish."""
        completed = node.engine.completed
        node.retired_s = node.drain_started_s
        if completed and completed[-1].finished_s > node.retired_s:
            node.retired_s = completed[-1].finished_s
        node.state = RETIRED
        self.next_at[node.index] = _IDLE
        self.timeline.append(ScalingEvent(
            time_s=node.retired_s, action=RETIRE, node=node.spec.name,
            live_nodes=len(self.routable)))

    # ------------------------------------------------------------------

    def report(self, offered_qps: float | None) -> ClusterReport:
        """Stamp lifecycles and roll the finished serve up."""
        offered_log, all_nodes = self.offered_log, self.all_nodes
        tracer, stream = self.tracer, self.stream
        window_end = max(
            [query.arrival_s for query in offered_log]
            + [node.engine.completed[-1].finished_s
               for node in all_nodes if node.engine.completed])
        for node in all_nodes:
            if node.retired_s is None:
                node.retired_s = window_end

        if offered_qps is None:
            # Rate estimate from the stream itself: N queries span N-1
            # inter-arrival gaps.  A single query (or simultaneous
            # arrivals) has no measurable rate; 0.0 marks "unknown".
            arrivals = [q.arrival_s for q in offered_log]
            span = max(arrivals) - min(arrivals)
            offered_qps = ((len(offered_log) - 1) / span if span > 0
                           else 0.0)

        # Per-node offered share of the fleet rate: a node's share is
        # of what was *admitted* — shed queries never reached any node,
        # so dividing by the full offered count would under-state every
        # node's load whenever the controller sheds (and the per-node
        # offered rates would no longer sum to the fleet rate).
        admitted_total = sum(node.assigned for node in all_nodes)
        node_results = []
        for node in all_nodes:
            completed = node.engine.completed
            share = (node.assigned / admitted_total if admitted_total
                     else 0.0)
            report = summarize(completed, node.engine.metrics,
                               offered_qps * share)
            node_results.append((node, completed, report))

        if tracer is not None:
            # The scaling timeline and the controller's per-tick signals
            # are appended once the serve loop has finished — identical
            # data to inline emission, and the controller itself stays
            # untouched by telemetry.  The fleet.signals counters follow
            # repro.telemetry.FLEET_SIGNAL_FIELDS, making a recorded
            # trace double as an offline training set for learned
            # routers (one sample per control tick, with the scale.*
            # decisions interleaved by timestamp).
            for event in self.timeline:
                args = {"live_nodes": event.live_nodes}
                if event.reason:
                    args["reason"] = event.reason
                tracer.event(f"scale.{event.action}", event.time_s,
                             cat="autoscale", node=event.node, args=args)
            if self.scaler is not None:
                for signal in self.scaler.signals:
                    tracer.counter(
                        "fleet.signals", signal.time_s,
                        {field: getattr(signal, field)
                         for field in FLEET_SIGNAL_FIELDS})

        if tracer is not None and stream is not None:
            # Request-level spans, linked to their stage-level query
            # spans by qid (stage queries carry the pipeline id; a
            # tenant's queries carry its session-strided ids).
            for pipeline in stream.pipelines:
                end = (pipeline.finished_s
                       if pipeline.finished_s is not None else window_end)
                tracer.span(
                    f"pipeline:{pipeline.spec.name}", pipeline.arrival_s,
                    end - pipeline.arrival_s, cat="pipeline",
                    qid=pipeline.pipeline_id,
                    args={"stages": len(pipeline.stages),
                          "satisfied": pipeline.satisfied,
                          "failed": pipeline.failed})
            for tenant in stream.tenants:
                if not tenant.issued:
                    continue
                first = min(q.arrival_s for q in tenant.issued)
                last = max((q.finished_s if q.finished_s is not None
                            else q.arrival_s) for q in tenant.issued)
                tracer.span(
                    f"session:{tenant.session}", first, last - first,
                    cat="session", qid=tenant.issued[0].query_id,
                    args={"issued": len(tenant.issued),
                          "completed": tenant.completed,
                          "satisfied": tenant.satisfied,
                          "shed": tenant.shed})

        return rollup(
            offered=offered_log, node_results=node_results, shed=self.shed,
            deferrals=self.controller.deferrals if self.controller else 0,
            offered_qps=offered_qps, router=self.router.name,
            timeline=tuple(self.timeline), peak_live_nodes=self.peak_live,
            window=(self.start_s, window_end),
            pipelines=(pipeline_rollup(stream.pipelines)
                       if stream is not None else None),
            sessions=(session_reports(stream.tenants)
                      if stream is not None else ()))
