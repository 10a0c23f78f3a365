"""Scheduler foundations: offline model profiles and the dispatch driver.

Every policy consumes a :class:`ModelProfile` — the offline-profiled facts
the paper's schedulers rely on: per-layer latency budgets, per-layer
minimal core requirements (under the static code version), and the
model-granularity average core count ``Avg_C`` used by Alg. 2/3.

:class:`SpatialScheduler` implements the shared dispatch mechanics (FCFS
over continuing-then-new queries, conflict accounting, grow-on-free); the
concrete policies only decide the next block boundary, its core demand,
and the code versions — which is exactly the design split of paper Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.costmodel import CostModel
from repro.compiler.library import CompiledModel
from repro.compiler.schedule import Schedule
from repro.models.layers import LayerSpec, batched
from repro.runtime.engine import Engine
from repro.runtime.pricing import PricingCache
from repro.runtime.tasks import Query, block_duration

#: Default bound for every planning memo a scheduler holds: the
#: block-plan memo (dynamic blocks key it on (model, start layer, cap,
#: pressure), fixed strides on (model, start, stop, cap); fused batches
#: append the batch size) and the per-layer adaptive requirement memo
#: keyed (signature, version, budget, pressure).  Plumbed through
#: :class:`~repro.serving.server.ServingStack` as ``plan_cache_entries``
#: so one knob bounds the whole stack's schedulers.  Keyspace size only
#: affects recompute frequency, never results (entries are deterministic
#: functions of their keys).
DEFAULT_PLAN_CACHE_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ModelProfile:
    """Offline profile of one compiled model (static-version view)."""

    compiled: CompiledModel
    #: The layer shapes provisioned: the compiled graph's layers, batched
    #: for a fused-batch profile.
    layers: tuple[LayerSpec, ...]
    static_versions: tuple[Schedule, ...]
    layer_budgets_s: tuple[float, ...]
    #: Minimal cores for each layer to meet its budget, in isolation.
    layer_required_cores: tuple[int, ...]
    #: Budget-weighted average of the per-layer requirements (``Avg_C``).
    avg_cores: int
    #: Cores for the whole model to meet QoS as one unit (model-wise FCFS).
    model_cores: int
    #: Uncontended end-to-end service time at the provisioned per-layer
    #: core grants — the per-device cost prior the affinity router seeds
    #: its placement estimates with before observations arrive.
    isolated_service_s: float = 0.0


def build_profile(cost_model: CostModel, compiled: CompiledModel,
                  batch: int = 1) -> ModelProfile:
    """Profile a compiled model for scheduling (paper Sec. 4.2 inputs).

    ``batch > 1`` profiles fused batch-``batch`` execution (see
    :func:`batch_profile`): every layer is provisioned at its batched
    shape against a budget ``batch`` times the unit one.
    """
    layers = tuple(batched(layer, batch) for layer in compiled.graph.layers)
    versions = tuple(entry.static_version() for entry in compiled.layers)
    budgets = tuple(entry.qos_budget_s * batch for entry in compiled.layers)
    launch = cost_model.launch_s
    required = []
    durations = []
    for layer, version, budget in zip(layers, versions, budgets):
        # Provision slightly below the budget: running every layer exactly
        # at its budget edge leaves no room for queueing or interference
        # jitter, which no deployed allocator would do.
        cores = cost_model.required_cores(layer, version,
                                          max(budget * 0.85 - launch, 1e-7))
        if cores is None:
            cores = cost_model.cpu.cores
        required.append(cores)
        durations.append(cost_model.latency(layer, version, cores, 0.0)
                         + launch)

    # Time-weighted: the average height of the layer-wise allocation curve
    # (the red area of paper Fig. 4b), i.e. the minimum sustained core
    # demand of one in-flight query.
    total_time = sum(durations)
    weighted = sum(c * t for c, t in zip(required, durations))
    return ModelProfile(
        compiled=compiled,
        layers=layers,
        static_versions=versions,
        layer_budgets_s=budgets,
        layer_required_cores=tuple(required),
        avg_cores=max(1, round(weighted / total_time)),
        # Align with the layer-budget margin; a batch-B unit owns B
        # queries' worth of the deadline.
        model_cores=_model_required_cores(cost_model, layers, versions,
                                          compiled.qos_s * 0.85 * batch),
        isolated_service_s=total_time,
    )


def _model_required_cores(cost_model: CostModel,
                          layers: tuple[LayerSpec, ...],
                          versions: tuple[Schedule, ...],
                          target: float) -> int:
    """Minimal fixed core count for the whole model to finish by ``target``."""
    launch = cost_model.launch_s

    def model_latency(cores: int) -> float:
        total = cost_model.spawn_overhead(cores)
        for layer, version in zip(layers, versions):
            total += cost_model.latency(layer, version, cores, 0.0) + launch
        return total

    cores = 1
    while cores < cost_model.cpu.cores and model_latency(cores) > target:
        cores *= 2
    cores = min(cores, cost_model.cpu.cores)
    lower = max(1, cores // 2)
    for candidate in range(lower, cores + 1):
        if model_latency(candidate) <= target:
            return candidate
    return cores


def batch_profile(cost_model: CostModel, profile: ModelProfile,
                  batch: int) -> ModelProfile:
    """Re-profile a model for fused batch-``batch`` execution.

    A batch-B block carries B queries' service demand per layer, so its
    planning budgets scale ``x B``: the planner targets the same
    *per-query* throughput as B sequential unit blocks and grants a
    similar (narrow, core-efficient) width — the batch's amortisation
    (shared weight traffic, one spawn/launch stream instead of B) then
    yields strictly cheaper core-seconds per query.  Without the budget
    scaling a batch block would inherit single-query layer deadlines,
    be forced to the machine-wide sync-tax regime, and *lose* capacity.
    The flip side is honest too: a fused batch's end-to-end latency
    approaches B unit services, so batching only satisfies QoS targets
    slack enough to absorb it — exactly the throughput-for-latency
    trade :class:`repro.runtime.engine.BatchPolicy` opts into.
    Static versions and the compiled model are unchanged.
    """
    if batch <= 1:
        return profile
    return build_profile(cost_model, profile.compiled, batch)


@dataclass(frozen=True)
class BlockPlan:
    """A policy's decision for one dispatch.

    The driver grants ``min(desired_cores, free cores)``.
    """

    stop_layer: int
    desired_cores: int
    versions: tuple[Schedule, ...]


class SpatialScheduler:
    """Shared dispatch driver for spatial-multitasking policies.

    Subclasses implement :meth:`plan` — given a query and the engine
    state (with at least one free core), return a :class:`BlockPlan` or
    ``None`` to keep the query queued.  The driver serves continuing
    queries before new arrivals (a worker finishes its model before
    taking new work) and FCFS within each queue, and optionally grows
    conflicted running blocks when cores free up (the paper's
    conflict-recovery technique).

    The planning hooks below are the static-compilation view: pressure
    is ignored and every layer runs its isolation-best version at its
    offline-profiled requirement.  The adaptive-compilation mixin
    (:class:`repro.scheduling.veltair.AdaptiveCompilation`) overrides all
    three, on top of any block granularity.
    """

    #: Policies that start under-allocated and grow later set this.
    allow_grow = False
    #: Admission control: a query's *first* block waits for its full grant
    #: instead of starting under-allocated (continuation blocks always
    #: proceed — stalling mid-model wastes the work already done).
    admit_full_grant_only = False
    #: Conflicted blocks grow in chunks of at least this many cores (or
    #: the full deficit) — growing one core at a time re-prices the whole
    #: machine for no benefit.
    min_grow_cores = 2
    #: Dispatch events record :meth:`planning_pressure` when set (the
    #: pressure a dynamic-block plan is keyed on), else the engine's
    #: planning-mode pressure.
    traces_planning_pressure = False

    def __init__(self, cost_model: CostModel,
                 profiles: dict[str, ModelProfile],
                 plan_cache_entries: int = DEFAULT_PLAN_CACHE_ENTRIES,
                 ) -> None:
        self.cost_model = cost_model
        self.profiles = profiles
        #: Batch-scaled profile variants, built on first use per
        #: (model, batch) — fused batches are few and their sizes
        #: bounded by ``BatchPolicy.max_batch``, so this stays tiny.
        self._batch_profiles: dict[tuple[str, int], ModelProfile] = {}
        #: The planning memos (see DEFAULT_PLAN_CACHE_ENTRIES): whole
        #: block plans, and adaptive per-layer requirements.  Both are
        #: bounded because their keyspace grows with the stream.
        self._plan_cache = PricingCache(max_entries=plan_cache_entries)
        self._required_cache = PricingCache(max_entries=plan_cache_entries)

    # -- policy hooks --------------------------------------------------------

    def plan(self, engine: Engine, query: Query) -> BlockPlan | None:
        raise NotImplementedError

    def planning_pressure(self, engine: Engine) -> float:
        """Static versions are planned as if the machine were quiet."""
        return 0.0

    def version_for(self, query: Query, index: int,
                    pressure: float) -> Schedule:
        return self.profile_for(query).static_versions[index]

    def required_cores_for(self, profile: ModelProfile, index: int,
                           version: Schedule, pressure: float) -> int:
        return profile.layer_required_cores[index]

    def profile_for(self, query: Query) -> ModelProfile:
        try:
            profile = self.profiles[query.model.name]
        except KeyError:
            raise KeyError(f"no profile for model {query.model.name!r};"
                           " build_profile() it first") from None
        if query.batch <= 1:
            return profile
        key = (query.model.name, query.batch)
        scaled = self._batch_profiles.get(key)
        if scaled is None:
            scaled = batch_profile(self.cost_model, profile, query.batch)
            self._batch_profiles[key] = scaled
        return scaled

    # -- driver ---------------------------------------------------------------

    def schedule(self, engine: Engine) -> None:
        if self.allow_grow:
            self._grow_conflicted(engine)
        for queue in (engine.ready, engine.waiting):
            is_new_arrivals = queue is engine.waiting
            while queue:
                available = engine.allocator.available
                if available <= 0:
                    return
                plan = self.plan(engine, queue[0])
                if plan is None or plan.desired_cores <= 0:
                    break  # FCFS head-of-line wait
                take = min(plan.desired_cores, available)
                if (is_new_arrivals and self.admit_full_grant_only
                        and take < plan.desired_cores):
                    break  # admission control: wait for the full grant
                query = queue.popleft()
                if engine.tracer is not None:
                    self._trace_dispatch(engine, query, plan, take)
                engine.start_block(query, plan.stop_layer, take,
                                   plan.versions,
                                   desired_cores=plan.desired_cores)

    def _trace_dispatch(self, engine: Engine, query: Query,
                        plan: BlockPlan, take: int) -> None:
        """Record one dispatch decision (tracing enabled only).

        Captures the plan (block boundary, demand vs grant, the picked
        version's parallelism knob) and a pressure: the one a dynamic-block
        plan was keyed on (``traces_planning_pressure``; a side-effect-free
        read), else the engine's planning-mode pressure.
        """
        pressure = (self.planning_pressure(engine)
                    if self.traces_planning_pressure
                    else engine.pressure(planning=True))
        args = {"stop_layer": plan.stop_layer,
                "desired": plan.desired_cores,
                "granted": take,
                "pressure": pressure,
                "parallelism": (plan.versions[0].parallelism
                                if plan.versions else 0)}
        if query.batch > 1:
            # Fused batch dispatch: size marks the block stream as
            # carrying several member queries (args stay unchanged for
            # plain queries, keeping pre-batching traces byte-stable).
            args["batch"] = query.batch
        engine.tracer.event(
            "dispatch", engine.now, cat="scheduler", qid=query.query_id,
            args=args)

    def _grow_conflicted(self, engine: Engine) -> None:
        """Hand freed cores to under-allocated blocks, oldest first."""
        blocks = sorted((b for b in engine.running.values()
                         if b.cores < b.desired_cores),
                        key=lambda b: b.started_s)
        for block in blocks:
            free = engine.allocator.available
            if free <= 0:
                return
            deficit = block.desired_cores - block.cores
            extra = min(deficit, free)
            if extra < min(self.min_grow_cores, deficit):
                continue
            engine.grow_block(block.task_id, extra)


def block_required_cores(cost_model: CostModel, query: Query, start: int,
                         stop: int, versions: tuple[Schedule, ...],
                         budget_s: float, interference: float = 0.0,
                         cap: int | None = None) -> int:
    """Minimal cores so the block finishes within ``budget_s``.

    Mirrors :meth:`CostModel.required_cores` at block granularity (spawn
    and launch overheads included), never exceeding ``cap`` (default:
    the machine size).  When no count up to the cap meets the budget,
    the grid point with the lowest block latency is returned — the
    scheduler then runs the block as fast as it can within the cap.
    """
    limit = cap if cap is not None else cost_model.cpu.cores
    limit = max(1, min(limit, cost_model.cpu.cores))

    def duration(cores: int) -> float:
        return block_duration(cost_model, query, start, stop, versions,
                              cores, interference)

    # Latency over cores is U-shaped (sync tax), so probe a geometric
    # grid and refine the first feasible point backwards.
    grid = [c for c in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48)
            if c < limit] + [limit]
    previous = 1
    for cores in grid:
        if duration(cores) <= budget_s:
            for candidate in range(previous, cores):
                if duration(candidate) <= budget_s:
                    return candidate
            return cores
        previous = cores
    # Infeasible under the cap: run at the latency-minimising grid point.
    return min(grid, key=duration)
