"""Rate-based discrete-event simulation of the multi-tenant CPU.

Execution model: each running layer block advances through its work at a
*rate* (work fraction per second) priced by the cost model under the
current co-location pressure.  Whenever the co-location set changes
(block start, finish, or grow), affected blocks bank their progress and
re-price — so a block that started on a quiet machine slows down
mid-flight when noisy neighbours arrive, exactly the dynamic the paper's
adaptive scheduler reacts to.

The hot path is built for high offered QPS (the regime the paper's
QPS-with-95%-QoS evaluation lives in):

* **Incremental repricing** — pressure is quantized before pricing, and
  each block remembers the quantum it was last priced under
  (:attr:`RunningBlock.priced_quantum`).  A co-location change only
  re-prices blocks whose quantum actually moved; everyone else keeps
  their rate and their scheduled finish event.
* **Heap hygiene** — finish events are lazily deleted: a stale event
  (superseded generation) is dropped at pop time without advancing the
  clock, a per-engine stale counter triggers heap compaction when stale
  entries dominate, and arrivals are staged into the heap one at a time,
  so the heap stays O(running blocks) rather than O(pushed events).
* **Shared pricing cache** — pricing goes through a
  :class:`~repro.runtime.pricing.PricingCache` that the serving stack
  persists across runs and policies, so identical blocks recurring in a
  QPS sweep skip the cost model entirely.

The engine owns mechanics only (clock, events, core accounting, pressure
bookkeeping); *policies* live in :mod:`repro.scheduling` and are invoked
through a single callback, :meth:`Scheduler.schedule`.

Telemetry: pass ``tracer=`` (a :class:`repro.telemetry.Tracer` or a
node-scoped view) to record block spans, per-query lifecycle spans, and
conflict/grow/arrival events.  The tracer is observational only — with
the default ``tracer=None`` every emission site is one ``is not None``
test and simulation results are bit-identical either way (the
telemetry-overhead benchmark gates both properties).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Protocol

from repro.compiler.costmodel import CostModel
from repro.compiler.schedule import Schedule
from repro.models.layers import batched
from repro.runtime.allocator import CoreAllocator
from repro.runtime.pricing import PricingCache
from repro.runtime.tasks import (
    BatchQuery,
    Query,
    RunningBlock,
    block_duration,
    fuse_batch,
)

#: Default pressure quantisation step.  Pricing happens at quantized
#: pressure levels, so the step trades fidelity (worst-case pricing is a
#: half-step of pressure stale, a few percent of latency under the
#: linear contention model) against repricing churn (a finer step makes
#: every co-location change flip more blocks' quanta).  The interference
#: proxy itself only resolves 0.01 and the cost model memoises at 1e-4,
#: so 0.05 keeps the engine well inside the model's own noise floor.
_PRESSURE_QUANTUM = 0.05

#: Compaction trigger: rebuild the heap once this many stale finish
#: events have accumulated *and* they outnumber the live entries.
_COMPACT_MIN_STALE = 64


class Scheduler(Protocol):
    """Policy interface: examine the engine, start/grow blocks, return."""

    def schedule(self, engine: "Engine") -> None:  # pragma: no cover
        ...


@dataclass(frozen=True)
class BatchPolicy:
    """Engine-side dynamic batching of same-model queued queries.

    A fresh arrival opens (or joins) a per-model batch group instead of
    entering the scheduler's queue directly.  The group closes — fusing
    its members into one :class:`~repro.runtime.tasks.BatchQuery` —
    when it reaches ``max_batch`` members, or ``max_wait_s`` after its
    first member arrived, whichever comes first.  A group that closes
    with a single member releases the original query unwrapped, so
    sparse traffic pays only the wait, never batched pricing.

    The default everywhere is **no batching** (``batching=None`` on
    :class:`Engine`), under which the arrival path is byte-for-byte the
    pre-batching one.
    """

    max_batch: int = 4
    max_wait_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch < 2:
            raise ValueError("max_batch must be >= 2")
        if self.max_wait_s < 0.0:
            raise ValueError("max_wait_s must be >= 0")


@dataclass
class SimulationMetrics:
    """System-wide accounting over one simulation run."""

    conflicts: int = 0
    grows: int = 0
    blocks_started: int = 0
    #: Integral of allocated cores over time (core-seconds).
    usage_core_seconds: float = 0.0
    #: Integral bounds for utilisation reporting.
    first_event_s: float | None = None
    last_event_s: float = 0.0
    max_cores_used: int = 0
    #: Hot-path accounting (the scale benchmark reads these).
    finish_events_pushed: int = 0
    repricings: int = 0
    prices_computed: int = 0
    stale_events_dropped: int = 0
    heap_peak: int = 0
    heap_compactions: int = 0

    @property
    def span_s(self) -> float:
        if self.first_event_s is None:
            return 0.0
        return max(0.0, self.last_event_s - self.first_event_s)

    @property
    def average_cores_used(self) -> float:
        span = self.span_s
        return self.usage_core_seconds / span if span > 0 else 0.0


class Engine:
    """The simulator core: event loop + running-block bookkeeping."""

    def __init__(self, cost_model: CostModel,
                 soon_to_finish_threshold: float = 0.10,
                 price_cache: PricingCache | None = None,
                 incremental: bool = True,
                 pressure_quantum: float = _PRESSURE_QUANTUM,
                 tracer=None,
                 batching: BatchPolicy | None = None,
                 on_complete=None) -> None:
        if not 0.0 < pressure_quantum <= 1.0:
            raise ValueError("pressure_quantum must be in (0, 1]")
        self.pressure_quantum = pressure_quantum
        self.cost_model = cost_model
        self.cpu = cost_model.cpu
        self.allocator = CoreAllocator(self.cpu.cores)
        self.soon_to_finish_threshold = soon_to_finish_threshold
        self.now = 0.0
        self.metrics = SimulationMetrics()
        #: Queries that arrived and have not started their first block.
        self.waiting: deque[Query] = deque()
        #: Queries between blocks, ready for their next block.
        self.ready: deque[Query] = deque()
        self.running: dict[int, RunningBlock] = {}
        self.completed: list[Query] = []
        self._events: list[tuple[float, int, str, object]] = []
        self._seq = itertools.count()
        self._task_ids = itertools.count(1)
        self._dirty = False
        #: Re-price every block each round when False (the legacy mode,
        #: kept for A/B verification and the scale benchmark).
        self.incremental = incremental
        #: Shared (or private) block pricing memo, bound to this cost
        #: model: cache keys do not embed the model, so sharing one
        #: cache across cost models would cross-serve stale prices.
        self.price_cache = (price_cache if price_cache is not None
                            else PricingCache())
        if self.price_cache.owner_token is None:
            self.price_cache.owner_token = cost_model
        elif self.price_cache.owner_token is not cost_model:
            raise ValueError(
                "price_cache is bound to a different cost model; "
                "pricing results are not portable across cost models")
        #: Blocks that must be re-priced regardless of pressure quantum
        #: (just started, or grown and owing spawn overhead).
        self._needs_pricing: set[int] = set()
        #: Running sums maintained incrementally so that pressure and
        #: counter aggregation are O(1) instead of O(running blocks).
        self._pressure_sum = 0.0
        self._miss_sum = 0.0
        self._access_sum = 0.0
        #: Stale finish events currently sitting in the heap.
        self._stale_finish = 0
        #: Bumped on every running-set/core-grant mutation; schedulers
        #: key co-location-dependent memos (e.g. thresholds) on this.
        self.colocation_epoch = 0
        #: Bumped after each repricing round that changed any block.
        self.pressure_epoch = 0
        #: Arrival staging: sorted (time, seq, "arrival", query) records
        #: fed into the heap one at a time.
        self._arrivals: list[tuple[float, int, str, object]] = []
        self._arrival_cursor = 0
        #: Scheduler bound by :meth:`begin` (or :meth:`run`); the drive
        #: loop dispatches through it after every event.
        self._scheduler: Scheduler | None = None
        #: Telemetry sink (``repro.telemetry`` Tracer/NodeTracer) or
        #: None.  Never read by the simulation — observational only.
        self.tracer = tracer
        #: Dynamic batching policy, or None (the default) for the
        #: legacy one-query-per-block-stream arrival path.
        self.batching = batching
        #: Completion-hook seam: ``on_complete(engine, query)`` fires
        #: once per completed query, immediately after the query is
        #: appended to :attr:`completed` (batch members individually).
        #: The hook may :meth:`submit` follow-up work — the seam that
        #: powers closed-loop tenants and pipeline stage hand-off.
        #: ``None`` (the default) keeps the completion path untouched.
        self.on_complete = on_complete
        #: Open batch groups by model name, plus a per-model token that
        #: invalidates the pending max-wait flush event once a group
        #: closes early (lazy deletion, same idiom as finish events).
        self._batch_pending: dict[str, list[Query]] = {}
        self._batch_token: dict[str, int] = {}
        self._batch_queued = 0

    # ------------------------------------------------------------------
    # pressure / introspection for schedulers
    # ------------------------------------------------------------------

    def pressure(self, exclude_task: int | None = None,
                 planning: bool = False) -> float:
        """System pressure, optionally excluding one task.

        With ``planning=True``, blocks whose remaining work fraction is
        at or below the soon-to-finish threshold are ignored (paper
        Sec. 4.3) — they will vacate before a newly planned block feels
        them.
        """
        total = 0.0
        for block in self.running.values():
            if block.task_id == exclude_task:
                continue
            if planning and (1.0 - block.progress
                             <= self.soon_to_finish_threshold):
                continue
            total += block.pressure
        return min(1.0, total)

    @property
    def queued(self) -> int:
        """Queries queued but not executing.

        Waiting + ready, plus queries parked in open batch groups (a
        batched arrival is queued work even before its group closes).
        """
        return len(self.waiting) + len(self.ready) + self._batch_queued

    @property
    def outstanding(self) -> int:
        """Queries admitted but not finished (queued + running blocks).

        A query occupies exactly one of ``waiting``/``ready``/``running``
        at any instant, so this is the node's in-flight query count — the
        signal queue-depth cluster routers balance on.
        """
        return self.queued + len(self.running)

    def quantize_pressure(self, pressure: float) -> float:
        """Snap a pressure estimate to this engine's pricing quantum.

        Pricing (and therefore every pressure-keyed planning cache worth
        having) only resolves ``pressure_quantum`` steps; planners should
        quantize their estimates with this so their cache keys are never
        finer than what pricing can distinguish.
        """
        steps = round(pressure / self.pressure_quantum)
        return min(1.0, steps * self.pressure_quantum)

    def system_counters(self) -> tuple[float, float]:
        """Aggregate (L3 miss rate, L3 accesses/s) across running blocks.

        This is what the runtime monitor samples for the interference
        proxy; rates were cached at the last re-pricing and aggregated
        incrementally, so the read is O(1).
        """
        misses = max(0.0, self._miss_sum)
        accesses = max(0.0, self._access_sum)
        if accesses <= 0.0:
            return 0.0, 0.0
        return misses / accesses, accesses

    # ------------------------------------------------------------------
    # scheduler-facing actions
    # ------------------------------------------------------------------

    def start_block(self, query: Query, stop_layer: int, cores: int,
                    versions: tuple[Schedule, ...],
                    desired_cores: int | None = None) -> int:
        """Begin executing layers ``[query.next_layer, stop_layer)``.

        ``desired_cores`` marks a scheduling conflict: the policy wanted
        more than it could get and intends to grow later.
        """
        start_layer = query.next_layer
        if not start_layer < stop_layer <= len(query.model.layers):
            raise ValueError(
                f"bad block range [{start_layer}, {stop_layer}) for "
                f"{query.model.name}")
        desired = desired_cores if desired_cores is not None else cores
        task_id = next(self._task_ids)
        self.allocator.allocate(task_id, cores)

        block = RunningBlock(
            task_id=task_id, query=query, start_layer=start_layer,
            stop_layer=stop_layer, versions=versions, cores=cores,
            desired_cores=desired, started_s=self.now,
            last_update_s=self.now,
        )
        block.pressure = self._block_pressure(block)
        self._pressure_sum += block.pressure
        self.running[task_id] = block
        if query.started_s is None:
            query.started_s = self.now
        query.blocks += 1
        self.metrics.blocks_started += 1
        if desired > cores:
            query.conflicts += 1
            self.metrics.conflicts += 1
            if self.tracer is not None:
                self.tracer.event(
                    "conflict", self.now, cat="engine",
                    qid=query.query_id,
                    args={"desired": desired, "granted": cores})
        self._needs_pricing.add(task_id)
        self.colocation_epoch += 1
        self._dirty = True
        return task_id

    def grow_block(self, task_id: int, extra_cores: int) -> None:
        """Give a conflicted block more cores (paper's recovery technique).

        The added threads cost one spawn, charged against the block's
        remaining work at the next re-pricing.
        """
        block = self.running[task_id]
        self.allocator.grow(task_id, extra_cores)
        block.cores += extra_cores
        block.pending_overhead_s += self.cost_model.expand_overhead(
            extra_cores)
        block.query.grows += 1
        self._pressure_sum -= block.pressure
        block.pressure = self._block_pressure(block)
        self._pressure_sum += block.pressure
        self.metrics.grows += 1
        if self.tracer is not None:
            self.tracer.event(
                "grow", self.now, cat="engine",
                qid=block.query.query_id,
                args={"extra": extra_cores, "cores": block.cores})
        self._needs_pricing.add(task_id)
        self.colocation_epoch += 1
        self._dirty = True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _block_pressure(self, block: RunningBlock) -> float:
        """Duration-weighted pressure contribution of a block's layers."""
        batch = block.query.batch
        key = ("pressure", block.query.model.name, block.start_layer,
               block.stop_layer, block.versions, block.cores)
        if batch > 1:
            # Appended only for fused batches so unbatched cache keys
            # stay byte-identical to the pre-batching ones.
            key = key + (batch,)
        cached = self.price_cache.get(key)
        if cached is not None:
            return cached
        layers = block.query.model.graph.layers
        total_time = 0.0
        weighted = 0.0
        for offset, index in enumerate(range(block.start_layer,
                                             block.stop_layer)):
            layer = batched(layers[index], batch)
            version = block.versions[offset]
            iso = self.cost_model.latency(layer, version, block.cores, 0.0)
            contribution = self.cost_model.pressure_contribution(
                layer, version, block.cores)
            total_time += iso
            weighted += iso * contribution
        value = weighted / total_time if total_time > 0 else 0.0
        self.price_cache.put(key, value)
        return value

    def _advance(self, to_time: float) -> None:
        """Bank progress for all running blocks up to ``to_time``."""
        if self.metrics.first_event_s is None:
            self.metrics.first_event_s = to_time
        used = self.allocator.used
        dt_total = to_time - self.metrics.last_event_s
        if dt_total > 0:
            self.metrics.usage_core_seconds += used * dt_total
        self.metrics.last_event_s = to_time
        self.metrics.max_cores_used = max(self.metrics.max_cores_used, used)
        for block in self.running.values():
            dt = to_time - block.last_update_s
            if dt > 0:
                block.progress = min(1.0, block.progress + dt * block.rate)
                block.query.core_seconds += block.cores * dt
                block.last_update_s = to_time
        self.now = to_time

    def _price_block(self, block: RunningBlock,
                     pressure: float) -> tuple[float, float, float]:
        """(duration, miss lines/s, access lines/s) for a block execution."""
        batch = block.query.batch
        key = (block.query.model.name, block.start_layer, block.stop_layer,
               block.versions, block.cores, pressure)
        if batch > 1:
            key = key + (batch,)
        cached = self.price_cache.get(key)
        if cached is not None:
            return cached
        self.metrics.prices_computed += 1
        duration = block_duration(
            self.cost_model, block.query, block.start_layer,
            block.stop_layer, block.versions, block.cores, pressure)
        layers = block.query.model.graph.layers
        misses = 0.0
        accesses = 0.0
        for offset, index in enumerate(range(block.start_layer,
                                             block.stop_layer)):
            execution = self.cost_model.execution(
                batched(layers[index], batch), block.versions[offset],
                block.cores, pressure)
            misses += execution.dram_line_misses
            accesses += execution.llc_line_accesses
        priced = (duration, misses / duration, accesses / duration)
        self.price_cache.put(key, priced)
        return priced

    def _push_event(self, time: float, kind: str, payload: object) -> None:
        heapq.heappush(self._events, (time, next(self._seq), kind, payload))
        if len(self._events) > self.metrics.heap_peak:
            self.metrics.heap_peak = len(self._events)

    def _reprice_block(self, block: RunningBlock, quantum: float) -> None:
        """Re-price one block at ``quantum`` and schedule its finish."""
        duration, miss_rate, access_rate = self._price_block(block, quantum)
        if block.pending_overhead_s > 0.0:
            # Clamp at zero: a grow right after a block starts can owe
            # more spawn overhead than the block has banked progress,
            # and negative progress would overstate the remaining work.
            block.progress = max(
                0.0, block.progress - block.pending_overhead_s / duration)
            block.pending_overhead_s = 0.0
        self._miss_sum += miss_rate - block.miss_lines_per_s
        self._access_sum += access_rate - block.access_lines_per_s
        block.rate = 1.0 / duration
        block.miss_lines_per_s = miss_rate
        block.access_lines_per_s = access_rate
        if block.generation > 0:
            self._stale_finish += 1  # the previous finish event went stale
        block.generation += 1
        block.priced_quantum = quantum
        remaining = max(0.0, 1.0 - block.progress) * duration
        self._push_event(self.now + remaining, "finish",
                         (block.task_id, block.generation))
        self.metrics.repricings += 1
        self.metrics.finish_events_pushed += 1

    def _reprice_dirty(self, scheduler: Scheduler | None = None) -> None:
        """Re-price blocks whose quantized excluded pressure changed.

        In incremental mode a block keeps its rate and its scheduled
        finish event while its quantum holds still; only new, grown, or
        quantum-shifted blocks pay for pricing and a heap push.  With
        ``incremental=False`` every running block is re-priced every
        round (the pre-overhaul behaviour, kept for A/B checks).
        """
        total = self._pressure_sum
        needs = self._needs_pricing
        changed = False
        for block in self.running.values():
            excluded = total - block.pressure
            if excluded < 0.0:
                excluded = 0.0
            elif excluded > 1.0:
                excluded = 1.0
            quantum = self.quantize_pressure(excluded)
            if (self.incremental and block.task_id not in needs
                    and quantum == block.priced_quantum):
                continue
            self._reprice_block(block, quantum)
            changed = True
        needs.clear()
        self._dirty = False
        if changed:
            self.pressure_epoch += 1
            if self.tracer is not None:
                self.tracer.counter(
                    "engine", self.now,
                    {"pressure": min(1.0, max(0.0, self._pressure_sum)),
                     "running": len(self.running),
                     "queued": self.queued})
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap once stale finish events dominate it."""
        if self._stale_finish <= _COMPACT_MIN_STALE:
            return
        if self._stale_finish * 2 <= len(self._events):
            return
        live = []
        for event in self._events:
            if event[2] == "finish":
                task_id, generation = event[3]
                block = self.running.get(task_id)
                if block is None or block.generation != generation:
                    continue
            live.append(event)
        self.metrics.stale_events_dropped += len(self._events) - len(live)
        self._events = live
        heapq.heapify(self._events)
        self._stale_finish = 0
        self.metrics.heap_compactions += 1

    def _finish_block(self, block: RunningBlock) -> None:
        self.allocator.release(block.task_id)
        del self.running[block.task_id]
        self._pressure_sum -= block.pressure
        self._miss_sum -= block.miss_lines_per_s
        self._access_sum -= block.access_lines_per_s
        query = block.query
        query.next_layer = block.stop_layer
        if self.tracer is not None:
            self._trace_block(block)
        if query.done:
            if isinstance(query, BatchQuery):
                self._complete_batch(query)
            else:
                query.finished_s = self.now
                self.completed.append(query)
                if self.tracer is not None:
                    self._trace_completion(query)
                if self.on_complete is not None:
                    self.on_complete(self, query)
        else:
            self.ready.append(query)
        self.colocation_epoch += 1
        self._dirty = True

    def _complete_batch(self, batch: BatchQuery) -> None:
        """Attribute a fused batch's outcome back to every member.

        Members land in :attr:`completed` individually (the wrapper
        never does) with their own arrival/QoS intact, the shared
        start/finish instants, and an equal share of the fused
        ``core_seconds`` — so ServingReport/QoS accounting stays exact
        over real requests.
        """
        batch.finished_s = self.now
        share = batch.core_seconds / batch.batch
        for member in batch.members:
            member.started_s = batch.started_s
            member.next_layer = len(member.model.layers)
            member.finished_s = self.now
            member.blocks = batch.blocks
            member.conflicts = batch.conflicts
            member.grows = batch.grows
            member.core_seconds = share
            self.completed.append(member)
            if self.tracer is not None:
                self._trace_completion(member)
        if self.tracer is not None:
            self.tracer.span(
                f"batch:{batch.model.name}", batch.arrival_s,
                self.now - batch.arrival_s, cat="batch",
                qid=batch.query_id,
                args={"size": batch.batch,
                      "members": [m.query_id for m in batch.members]})
        if self.on_complete is not None:
            for member in batch.members:
                self.on_complete(self, member)

    def _batch_offer(self, query: Query) -> None:
        """Park a fresh arrival in its model's open batch group.

        The first member opens the group and arms a ``max_wait_s``
        flush timer; reaching ``max_batch`` closes the group early (the
        timer goes stale via the per-model token and is dropped lazily,
        like superseded finish events).
        """
        name = query.model.name
        group = self._batch_pending.get(name)
        if group is None:
            group = self._batch_pending[name] = []
            token = self._batch_token.get(name, 0) + 1
            self._batch_token[name] = token
            self._push_event(self.now + self.batching.max_wait_s,
                             "batch", (name, token))
        group.append(query)
        self._batch_queued += 1
        if len(group) >= self.batching.max_batch:
            self._batch_flush(name)

    def _batch_flush(self, name: str) -> None:
        """Close a batch group and hand its payload to the scheduler."""
        group = self._batch_pending.pop(name)
        self._batch_token[name] += 1  # invalidate any pending timer
        self._batch_queued -= len(group)
        if len(group) == 1:
            # Sparse traffic: release the original query unwrapped, so
            # it pays only the wait, never batched pricing.
            self.waiting.append(group[0])
            return
        fused = fuse_batch(group)
        self.waiting.append(fused)
        if self.tracer is not None:
            self.tracer.event(
                "batch.close", self.now, cat="batch", qid=fused.query_id,
                args={"model": name, "size": fused.batch})

    def _trace_block(self, block: RunningBlock) -> None:
        """Emit the closed block span (tracing enabled only).

        ``iso_s`` is the block's isolated (zero-pressure) duration — it
        goes through the shared price cache, so the lookup is a pure
        function of the block key and never perturbs the simulation —
        letting summarize recover the interference stall per block as
        ``dur - iso_s``.
        """
        query = block.query
        args = {
            "layers": [block.start_layer, block.stop_layer],
            "cores": block.cores,
            "iso_s": self._price_block(block, 0.0)[0],
        }
        if block.had_conflict:
            args["conflict"] = True
        self.tracer.span(
            f"{query.model.name}[{block.start_layer}:{block.stop_layer})",
            block.started_s, self.now - block.started_s, cat="block",
            qid=query.query_id, args=args)

    def _trace_completion(self, query: Query) -> None:
        """Emit the queue phase + lifecycle span at query completion.

        The query span's duration is stored as the exact float
        ``finished_s - arrival_s`` — the same value
        ``ServingReport.summarize`` averages — so a saved trace
        reproduces the report's mean latency bit for bit.
        """
        started = (query.started_s if query.started_s is not None
                   else query.arrival_s)
        self.tracer.span("queue", query.arrival_s,
                         started - query.arrival_s, cat="phase",
                         qid=query.query_id)
        self.tracer.span(
            query.model.name, query.arrival_s,
            query.finished_s - query.arrival_s, cat="query",
            qid=query.query_id,
            args={"satisfied": query.satisfied, "qos_s": query.qos_s,
                  "blocks": query.blocks, "conflicts": query.conflicts,
                  "grows": query.grows})

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def _stage_arrivals(self, queries: list[Query]) -> None:
        """Sort arrivals and seed the heap with the earliest one.

        Sequence numbers are assigned in input order *before* any finish
        event exists, so equal-time ties resolve exactly as if every
        arrival had been pushed up front — but the heap only ever holds
        one pending arrival instead of the whole stream.
        """
        self._arrivals = sorted(
            ((query.arrival_s, next(self._seq), "arrival", query)
             for query in queries),
            key=lambda event: (event[0], event[1]))
        self._arrival_cursor = 0
        self._feed_arrival()

    def _feed_arrival(self) -> None:
        if self._arrival_cursor < len(self._arrivals):
            heapq.heappush(self._events,
                           self._arrivals[self._arrival_cursor])
            self._arrival_cursor += 1
            if len(self._events) > self.metrics.heap_peak:
                self.metrics.heap_peak = len(self._events)

    @property
    def _arrivals_pending(self) -> bool:
        return self._arrival_cursor < len(self._arrivals)

    def run(self, queries: list[Query], scheduler: Scheduler,
            horizon_s: float | None = None) -> list[Query]:
        """Simulate until all queries complete (or the horizon passes).

        Returns completed queries in completion order.
        """
        self.begin(queries, scheduler)
        self._drive(horizon_s=horizon_s, resumable=False)
        return self.completed

    # ------------------------------------------------------------------
    # incremental driving (cluster co-simulation)
    # ------------------------------------------------------------------

    def begin(self, queries: list[Query], scheduler: Scheduler) -> None:
        """Stage a stream and bind a scheduler without running the loop.

        The cluster driver feeds each node engine incrementally: it
        ``begin``-s with an empty stream, then alternates
        :meth:`run_until` (to the node's next event, or to the next
        global offer) and :meth:`submit` (inject the query the router
        assigned here).  :meth:`run` is exactly ``begin`` +
        drive-to-completion.
        """
        self._scheduler = scheduler
        self._stage_arrivals(queries)

    def submit(self, query: Query, at: float | None = None) -> None:
        """Inject one arrival event, by default at ``query.arrival_s``.

        ``at`` sets the event time instead (an admission controller
        re-offering a deferred query) — the query's own ``arrival_s``
        is untouched, so its latency still counts the deferral.  Event
        times never go backwards: a time before :attr:`now` (or NaN)
        raises ``ValueError`` and leaves the engine untouched.
        """
        time = query.arrival_s if at is None else at
        if not time >= self.now:
            raise ValueError(
                f"query {query.query_id}: arrival event at {time!r} s is "
                f"before the engine clock {self.now!r} s")
        self._push_event(time, "arrival", query)

    def run_until(self, until_s: float) -> None:
        """Process every event at ``time <= until_s``; resumable.

        Leaves the first out-of-window event in the heap and advances
        the clock (banking progress and core-usage accounting) to
        ``until_s`` so routers observe fresh block progress.
        """
        self._drive(horizon_s=until_s, resumable=True)

    def drain(self) -> list[Query]:
        """Run the loop to completion; returns the completed queries.

        Completion ordering contract (pinned by test, relied on by
        ``on_complete`` consumers): :attr:`completed` is append-only in
        simulation-time order — a query is appended at its finish
        instant, with equal-time ties resolved in event order — and
        ``on_complete`` fires immediately after each append, with
        ``engine.now`` equal to that query's ``finished_s``.  Batch
        members are appended (and hooked) individually, in member
        order, at the fused block's finish.  The hook may
        :meth:`submit` follow-up work at or after the completion instant
        (an earlier arrival raises), and the drain keeps running until
        hook-generated work is exhausted too.
        """
        self._drive(horizon_s=None, resumable=False)
        return self.completed

    def next_event_s(self) -> float | None:
        """Earliest live event time in this engine, or None when idle.

        Pops stale finish events (and stale batch-flush timers) off the
        heap top exactly as the drive loop would, so the answer is the
        time :meth:`run_until` would next act at.  The cluster's drive
        loop compares it across nodes and with its own serve heap, so
        only the engines due at the earliest instant are stepped and
        completion-hook hand-offs stay causally ordered fleet-wide.
        """
        while self._events:
            time, _, kind, payload = self._events[0]
            if kind == "finish":
                task_id, generation = payload
                block = self.running.get(task_id)
                if block is None or block.generation != generation:
                    heapq.heappop(self._events)
                    self._stale_finish -= 1
                    self.metrics.stale_events_dropped += 1
                    continue
            elif kind == "batch":
                name, token = payload
                if self._batch_token.get(name) != token:
                    heapq.heappop(self._events)
                    continue
            return time
        if self._arrivals_pending:
            return self._arrivals[self._arrival_cursor][0]
        return None

    def _drive(self, horizon_s: float | None, resumable: bool) -> None:
        scheduler = self._scheduler
        if scheduler is None:
            raise RuntimeError("no scheduler bound; call begin()/run()")
        while self._events:
            event = heapq.heappop(self._events)
            time, _, kind, payload = event
            if kind == "finish":
                task_id, generation = payload
                block = self.running.get(task_id)
                if block is None or block.generation != generation:
                    # Lazy deletion: drop the stale event without even
                    # advancing the clock (progress banking is linear,
                    # so skipping the no-op advance changes nothing).
                    self._stale_finish -= 1
                    self.metrics.stale_events_dropped += 1
                    continue
            elif kind == "batch":
                name, token = payload
                if self._batch_token.get(name) != token:
                    continue  # group already closed early at max_batch
            if horizon_s is not None and time > horizon_s:
                # Account the tail of the simulated window: without this
                # advance, usage/last_event under-count everything after
                # the final in-horizon event and inflate average cores.
                # A resumable drive keeps the event for the next call; a
                # terminal horizon discards it with the rest of the run.
                if resumable:
                    heapq.heappush(self._events, event)
                if (self.metrics.first_event_s is not None
                        and horizon_s > self.now):
                    self._advance(horizon_s)
                return
            self._advance(time)
            if kind == "arrival":
                if self.batching is not None and payload.next_layer == 0:
                    self._batch_offer(payload)
                else:
                    self.waiting.append(payload)
                if self.tracer is not None:
                    self.tracer.event("arrival", time, cat="engine",
                                      qid=payload.query_id)
                self._feed_arrival()
            elif kind == "batch":
                self._batch_flush(payload[0])
            else:
                self._finish_block(block)
            scheduler.schedule(self)
            # A heap holding only stale finish events has no future in
            # it — count live entries, or the drain loop would slide
            # past this guard and silently drop the pending queries.
            live_events = len(self._events) - self._stale_finish
            if (not self.running and (self.waiting or self.ready)
                    and live_events <= 0 and not self._arrivals_pending):
                raise RuntimeError(
                    "scheduler deadlock: pending queries with an idle "
                    "machine and no future events")
            if self._dirty:
                self._reprice_dirty(scheduler)
        if (resumable and self.metrics.first_event_s is not None
                and horizon_s is not None and horizon_s > self.now):
            self._advance(horizon_s)
