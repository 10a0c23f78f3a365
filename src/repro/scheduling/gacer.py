"""GACER-style granularity-aware concurrency regulation (baseline).

GACER (see PAPERS.md) regulates multi-tenant throughput with two coupled
knobs instead of per-layer core auctions: a *concurrency cap* — how many
queries may hold execution resources at once — and a *block granularity*
that coarsens as concurrency drops (few co-runners → long uninterrupted
blocks amortise launch overhead; many co-runners → finer blocks keep the
allocation fluid).  The cap is tuned online by a low-frequency
hill-climbing controller on observed completion throughput: keep moving
the cap in the direction that improved throughput over the last
measurement window, reverse when it regressed.

The policy is deliberately simpler than VELTAIR's Alg. 2/3 — no
interference proxy, no per-block version re-selection — which is exactly
what makes it a useful A/B baseline: it isolates how much of the win
comes from concurrency regulation alone.  It also ports to any
:class:`~repro.hardware.platform.DeviceSpec` unchanged, since it reasons
in fractions of the device's parallel width.
"""

from __future__ import annotations

from repro.runtime.engine import Engine
from repro.runtime.tasks import Query
from repro.scheduling.base import BlockPlan
from repro.scheduling.fixed_block import FixedBlockScheduler


class GacerScheduler(FixedBlockScheduler):
    """Concurrency-regulated stride blocks with throughput hill-climbing.

    ``block_size`` is the stride at concurrency 1; the stride and the
    per-block cap both shrink as the regulated concurrency grows.
    """

    allow_grow = False
    admit_full_grant_only = False
    #: Grants stay slightly ahead of the deadline so that regulation,
    #: not per-layer auctions, absorbs jitter.
    budget_headroom = 0.8
    min_concurrency = 1
    #: Completions per hill-climbing measurement window.
    window = 16

    def __init__(self, cost_model, profiles) -> None:
        super().__init__(cost_model, profiles, block_size=12)
        # Enough co-runners to cover the machine without shredding
        # grants below useful widths (≥ 8 units each).
        self.max_concurrency = max(2, min(8, cost_model.cpu.cores // 8))
        self.concurrency = 2
        self._direction = 1
        self._last_completed = 0
        self._last_mark_s = 0.0
        self._last_rate: float | None = None

    @property
    def block_layers(self) -> int:
        """Granularity coupled to concurrency: fewer co-runners, coarser."""
        return max(1, self.block_size // self.concurrency)

    @property
    def block_cap(self) -> int:
        """An even share of the machine per admitted co-runner."""
        return max(1, self.cost_model.cpu.cores // self.concurrency)

    # -- the regulator -------------------------------------------------------

    def _regulate(self, engine: Engine) -> None:
        done = len(engine.completed)
        if done - self._last_completed < self.window:
            return
        elapsed = engine.now - self._last_mark_s
        if elapsed <= 0.0:
            return
        rate = (done - self._last_completed) / elapsed
        if self._last_rate is not None and rate < self._last_rate:
            self._direction = -self._direction
        self._last_rate = rate
        self._last_completed = done
        self._last_mark_s = engine.now
        self.concurrency = min(self.max_concurrency,
                               max(self.min_concurrency,
                                   self.concurrency + self._direction))
        if engine.tracer is not None:
            engine.tracer.event(
                "gacer.cap", engine.now, cat="scheduler",
                args={"concurrency": self.concurrency,
                      "direction": self._direction,
                      "throughput_qps": rate})

    # -- planning ------------------------------------------------------------

    def plan(self, engine: Engine, query: Query) -> BlockPlan | None:
        self._regulate(engine)
        active = {block.query.query_id for block in engine.running.values()}
        if len(active) >= self.concurrency and query.query_id not in active:
            return None  # cap reached; wait for a slot
        return super().plan(engine, query)
