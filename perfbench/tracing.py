"""Host clocks, host-speed scaling, and the span recorder of the traced run.

The benchmark never edits the simulator to observe it.  For the traced
run, :func:`instrument` swaps the public entry point of each layer (a
method, a property or a module global) for a wrapper that records one
span per call into a :class:`SpanLog`, and restores the originals on
exit.  The wrappers only read a clock and append to arrays, so the
simulated results stay bit-identical; the benchmark checks that.

Spans live in flat arrays while the run is in flight and are written
out once, at the end, by :meth:`SpanLog.write`.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path

import numpy as np

from repro.cluster.router import PressureAwareRouter
from repro.compiler.costmodel import CostModel
from repro.compiler.library import ModelCompiler
from repro.models.layers import LayerSpec
from repro.runtime.engine import Engine
from repro.runtime.pricing import PricingCache
from repro.runtime.tasks import Query
from repro.scheduling.veltair import VeltairScheduler
from repro.serving import server
from repro.serving.server import ServingStack


def wall_ns() -> int:
    """Host wall clock, nanoseconds (spans and the run's time budget)."""
    return time.perf_counter_ns()  # repro: ignore[no-wallclock] -- the benchmark measures host time


def cpu_ns() -> int:
    """Host CPU time of this process, nanoseconds (set-ups and serves)."""
    return time.process_time_ns()  # repro: ignore[no-wallclock] -- the benchmark measures host time


#: CPU ns :func:`reference_ns` takes on the nominal host that reported
#: host times are scaled to.
NOMINAL_REFERENCE_NS = 30_000_000


def reference_ns() -> int:
    """CPU ns of a fixed pure-Python loop: the host's speed right now.

    On a shared machine other tenants slow every core by up to 2x for
    seconds at a time.  The loop does what the simulator spends its time
    on (tuple keys, dict lookups, small lists, float arithmetic), so it
    slows with the simulator; host times measured between two of its
    runs are scaled by ``NOMINAL_REFERENCE_NS`` over their mean.
    """
    start = cpu_ns()
    table: dict[tuple[int, int], list[float]] = {}
    total = 0.0
    for i in range(60_000):
        key = (i % 512, i % 5)
        entry = table.get(key)
        if entry is None:
            table[key] = entry = [0.0, float(i)]
        entry[0] += i * 0.5
        total += entry[0] / (1.0 + entry[1])
    return cpu_ns() - start


def at_nominal_speed(ns: int, before: int, after: int) -> float:
    """``ns`` of host CPU time, scaled to the nominal host.

    ``before`` and ``after`` are :func:`reference_ns` readings taken on
    either side of the measured work.
    """
    return ns * 2.0 * NOMINAL_REFERENCE_NS / (before + after)


class SpanLog:
    """Spans of one phase: name, start, end, parent span and query id.

    A span's parent is the span open when it began (the process is
    single-threaded, so spans nest strictly); ``-1`` marks a root.  The
    query id is ``-1`` unless the wrapped call carries a ``Query``.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.qid = array("q")
        self.start = array("q")
        self.end = array("q")
        #: Calls of a span name that returned ``None`` (cache misses).
        self.nones: dict[str, int] = {}
        self._open = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int, qid: int = -1) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.qid.append(qid)
        self.end.append(0)
        self._open.append(index)
        self.start.append(wall_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = wall_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(index)

    def traced(self, name: str, fn, query_arg: int | None = None):
        """``fn`` wrapped to record a ``name`` span per call.

        ``query_arg`` is the positional index of a ``Query`` argument
        whose id the span records.  Calls returning ``None`` are counted
        in :attr:`nones`.
        """
        nid = self.name_id(name)
        log = self
        log.nones[name] = 0

        def wrapper(*args, **kwargs):
            qid = -1
            if query_arg is not None and len(args) > query_arg:
                query = args[query_arg]
                if isinstance(query, Query):
                    qid = query.query_id
            index = log.begin(nid, qid)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.finish(index)
            if result is None:
                log.nones[name] += 1
            return result

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, inclusive ``total_us`` and ``self_us``.

        Self time is a span's duration minus the part of it covered by
        its child spans (children nest strictly inside their parent).
        """
        if not len(self):
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = (np.frombuffer(self.end, dtype=np.int64)
                    - np.frombuffer(self.start, dtype=np.int64)
                    ).astype(np.float64)
        if np.any(duration < 0):
            raise RuntimeError("a traced span never closed")
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent],
                              weights=duration[has_parent],
                              minlength=len(duration))
        own = duration - covered
        count = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=duration,
                            minlength=len(self.names))
        own_total = np.bincount(name, weights=own,
                                minlength=len(self.names))
        return {label: {"count": float(count[nid]),
                        "total_us": total[nid] / 1e3,
                        "self_us": own_total[nid] / 1e3}
                for nid, label in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (NumPy ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 qid=np.frombuffer(self.qid, dtype=np.int64),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64))


def _owner(cls: type, attr: str) -> type:
    """The class in ``cls``'s MRO that defines ``attr``."""
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no {attr!r}")


#: (span name, owner, attribute, positional index of a Query argument).
#: Methods receive ``self`` as argument 0.
_ENTRY_POINTS = (
    ("setup.compile", ModelCompiler, "compile_models", None),
    ("setup.proxy_fit", ServingStack, "_fit_proxy", None),
    ("setup.runtime", ServingStack, "runtime_for", None),
    ("cluster.route", _owner(PressureAwareRouter, "choose"), "choose", 2),
    ("engine.run", Engine, "run", None),
    ("engine.run_until", Engine, "run_until", None),
    ("engine.drain", Engine, "drain", None),
    ("sched.schedule", _owner(VeltairScheduler, "schedule"), "schedule",
     None),
    ("sched.plan", _owner(VeltairScheduler, "plan"), "plan", 2),
    ("pricing.get", PricingCache, "get", None),
    ("pricing.put", PricingCache, "put", None),
    ("costmodel.execution", CostModel, "execution", None),
)


@contextlib.contextmanager
def instrument(log: SpanLog):
    """Record spans at every layer boundary into ``log`` while active."""
    saved = []
    try:
        for name, owner, attr, query_arg in _ENTRY_POINTS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, log.traced(name, original, query_arg))
        # ServingStack looks build_profile up in its own module globals.
        saved.append((server, "build_profile", server.build_profile))
        server.build_profile = log.traced("setup.profile",
                                          server.build_profile)
        signature = LayerSpec.__dict__["signature"]
        saved.append((LayerSpec, "signature", signature))
        LayerSpec.signature = property(
            log.traced("layers.signature", signature.fget))
        yield log
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
