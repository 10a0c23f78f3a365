"""Scheduler foundations: offline model profiles and the dispatch driver.

Every policy consumes a :class:`ModelProfile` — the offline-profiled facts
the paper's schedulers rely on: per-layer latency budgets, per-layer
minimal core requirements (under the static code version), and the
model-granularity average core count ``Avg_C`` used by Alg. 2/3.
Every core requirement — a layer's, a block's, a whole model's — comes
from one core-count search, :func:`min_cores`, through its two shapes
:func:`layer_required_cores` and :func:`block_required_cores`.

:class:`SpatialScheduler` implements the shared dispatch mechanics (FCFS
over continuing-then-new queries, conflict accounting, grow-on-free); the
concrete policies only decide the next block boundary, its core demand,
and the code versions — which is exactly the design split of paper Fig. 8.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.compiler.costmodel import CostModel
from repro.compiler.library import CompiledModel
from repro.compiler.schedule import Schedule
from repro.models.layers import LayerSpec, batched
from repro.runtime.engine import Engine
from repro.runtime.pricing import PricingCache
from repro.runtime.tasks import Query, unit_duration

#: Default bound for every planning memo: the block-plan memo (dynamic
#: blocks key it on (model, start layer, cap, pressure), fixed strides on
#: (model, start, stop, cap); fused batches append the batch size) and
#: the per-layer adaptive requirement memo keyed (signature, version,
#: budget, pressure).  A scheduler built directly holds private memos;
#: one built by :meth:`~repro.serving.server.ServingStack.make_scheduler`
#: plans through its node runtime's memos for that policy, which outlive
#: the serve (see :meth:`SpatialScheduler.share_memos`).  Plumbed through
#: the stack as ``plan_cache_entries``, so one knob bounds every memo.
#: Keyspace size only affects recompute frequency, never results
#: (entries are deterministic functions of their keys).
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
        cores = layer_required_cores(cost_model, layer, version,
                                     budget * 0.85)
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
        model_cores=block_required_cores(cost_model, layers, versions,
                                         compiled.qos_s * 0.85 * batch),
        isolated_service_s=total_time,
    )


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
                 profiles: dict[str, ModelProfile]) -> None:
        self.cost_model = cost_model
        self.profiles = profiles
        #: Profiles resolved so far, keyed by model name (unit batch) or
        #: (model, batch) for batch-scaled variants, so the hot lookup
        #: is one dict probe.  Fused batches are few and their sizes
        #: bounded by ``BatchPolicy.max_batch``, so this stays tiny.
        self._resolved: dict[str | tuple[str, int], ModelProfile] = {}
        #: The planning memos (see DEFAULT_PLAN_CACHE_ENTRIES): whole
        #: block plans, and adaptive per-layer requirements.  Both are
        #: bounded because their keyspace grows with the stream.
        self._plan_cache = PricingCache(
            max_entries=DEFAULT_PLAN_CACHE_ENTRIES)
        self._required_cache = PricingCache(
            max_entries=DEFAULT_PLAN_CACHE_ENTRIES)

    def share_memos(self, memos: tuple[PricingCache, PricingCache]) -> None:
        """Plan through ``memos`` (plan memo, requirement memo).

        Entries are pure functions of their keys plus the cost model,
        the profiles and the planner class, so any scheduler of the same
        class over the same cost model and profiles may share them — how
        a node runtime keeps one policy's plans warm across serves.
        """
        self._plan_cache, self._required_cache = memos

    @property
    def plan_misses(self) -> int:
        """Misses of the planning memos this scheduler plans through."""
        return self._plan_cache.misses + self._required_cache.misses

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
        name = query.model.name
        key = name if query.batch <= 1 else (name, query.batch)
        profile = self._resolved.get(key)
        if profile is None:
            try:
                profile = self.profiles[name]
            except KeyError:
                raise KeyError(f"no profile for model {name!r};"
                               " build_profile() it first") from None
            if query.batch > 1:
                profile = batch_profile(self.cost_model, profile,
                                        query.batch)
            self._resolved[key] = profile
        return profile

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


#: Probe points of the core-count search: latency over cores is U-shaped
#: (scaling gains against the synchronisation tax), so a geometric grid
#: finds the feasible region with few probes.
_CORE_GRID = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48)


def min_cores(duration: Callable[[int], float], budget_s: float,
              limit: int) -> tuple[int, bool]:
    """Fewest cores in ``[1, limit]`` whose ``duration`` meets ``budget_s``.

    The one core-count search behind every grant (paper Alg. 2/3 size a
    layer, a block or a whole model the same way).  The grid below
    ``limit``, then ``limit`` itself, is probed in order, and the first
    feasible grid point is refined backwards: the result is the first
    feasible count after the previous grid point.  Returns
    ``(cores, True)``, or ``(cores, False)`` with the latency-minimising
    grid point (the smallest on a tie) when no grid point fits.
    """
    grid = [c for c in _CORE_GRID if c < limit] + [limit]
    probes = []
    previous = 0
    for cores in grid:
        seconds = duration(cores)
        if seconds <= budget_s:
            for candidate in range(previous + 1, cores):
                if duration(candidate) <= budget_s:
                    return candidate, True
            return cores, True
        probes.append((seconds, cores))
        previous = cores
    return min(probes)[1], False


def layer_required_cores(cost_model: CostModel, layer: LayerSpec,
                         version: Schedule, budget_s: float,
                         interference: float = 0.0) -> int:
    """Fewest cores for one layer's kernel to meet ``budget_s``.

    Sizes the kernel alone against the budget less one launch, with no
    spawn, and grants the whole device when no count fits.  The engine
    charges every unit a spawn, so these grants can overrun their budget
    (ROADMAP, "Make Fig. 12 reproduce").
    """
    budget = max(budget_s - cost_model.launch_s, 1e-7)
    cores, met = min_cores(
        lambda c: cost_model.latency(layer, version, c, interference),
        budget, cost_model.cpu.cores)
    return cores if met else cost_model.cpu.cores


def block_required_cores(cost_model: CostModel,
                         layers: Sequence[LayerSpec],
                         versions: Sequence[Schedule], budget_s: float,
                         interference: float = 0.0,
                         cap: int | None = None) -> int:
    """Fewest cores so ``layers`` run as one unit within ``budget_s``.

    The unit is priced as the engine charges it (:func:`unit_duration`:
    spawn and launches included), never above ``cap`` (default: the
    device size).  When no count up to the cap fits, the grant is the
    latency-minimising grid point: the unit then runs as fast as it can.
    """
    limit = cap if cap is not None else cost_model.cpu.cores
    limit = max(1, min(limit, cost_model.cpu.cores))
    cores, _ = min_cores(
        lambda c: unit_duration(cost_model, layers, versions, c,
                                interference),
        budget_s, limit)
    return cores
