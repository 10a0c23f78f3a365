"""The shared ``fork`` worker-pool primitive and the sweep driver on it.

Both the load sweeps (:func:`sweep`, behind every node and fleet
experiment driver) and the parallel layer compilation
(:mod:`repro.compiler.artifacts`) fan work out over ``fork``-ed
processes whose scenario travels by copy-on-write through module
globals — never pickled.  This module owns the pool lifecycle and the
fail-soft contract so the layers (which must not import each other)
share one implementation.
"""

from __future__ import annotations

import contextlib
import multiprocessing


@contextlib.contextmanager
def fork_worker_pool(workers: int):
    """A ``fork``-pinned process pool, or ``None`` when unavailable.

    Workers inherit their scenario (compiled stacks, compiler state)
    through module globals by copy-on-write, which only the ``fork``
    start method provides — ``spawn``/``forkserver`` would have to
    pickle that state.  On platforms without ``fork`` (Windows; macOS
    configured spawn-only) — or when process creation itself fails —
    this yields ``None`` instead of raising, and every caller treats a
    ``None`` pool as the serial in-process path.  Results are identical
    either way; only wall-clock differs.  Callers must set their
    worker-state global *before* entering (fork captures it).
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        yield None  # spawn-only platform: documented serial fallback
        return
    if multiprocessing.current_process().daemon:
        # Pool workers are daemonic and may not have children of their
        # own (Pool() raises AssertionError, not OSError) — e.g. a
        # sweep worker lazily compiling with REPRO_COMPILE_WORKERS > 1.
        # Nested fan-out degrades to the serial path instead.
        yield None
        return
    context = multiprocessing.get_context("fork")
    try:
        pool = context.Pool(processes=max(1, int(workers)))
    except OSError:
        yield None  # fork/pipe failure: fail soft to the serial path
        return
    try:
        yield pool
    finally:
        pool.terminate()
        pool.join()


#: The point fork()-ed sweep workers evaluate.  Module-level so children
#: see it through copy-on-write instead of pickling the compiled stack.
_POINT = None


def _evaluate(load):
    return _POINT(load)


@contextlib.contextmanager
def sweep_pool(point, workers: int):
    """A persistent fork pool whose workers evaluate ``point``.

    ``point`` is a frozen, equality-comparable sweep description: its
    ``warm()`` builds the lazy artifacts in the parent before the fork
    (so workers share them by copy-on-write instead of each rebuilding
    them), and ``point(load)`` simulates one load.  Workers survive
    across :func:`sweep` calls, so their copy-on-write pricing caches
    stay warm from one capacity-search round to the next.  Yields
    ``None`` where :func:`fork_worker_pool` does; :func:`sweep` treats
    that as the serial path.
    """
    global _POINT
    point.warm()
    _POINT = point
    try:
        with fork_worker_pool(workers) as pool:
            if pool is not None:
                # Remember the fork-time point so sweep can reject a
                # call whose point disagrees with what workers simulate.
                pool._repro_point = point
            yield pool
    finally:
        _POINT = None


def sweep(point, loads: list, workers: int | None = None,
          pool=None) -> list:
    """``[point(load) for load in loads]``, optionally across workers.

    Every load is an independent deterministic simulation, so the
    results are identical however they are computed.  ``workers > 1``
    forks an ephemeral :func:`sweep_pool`; a ``pool`` from
    :func:`sweep_pool` reuses warm workers and must have been built for
    an equal ``point``.  A worker or pipe that dies mid-run (e.g.
    OOM-killed) makes the batch recompute serially in-process.
    """
    loads = list(loads)
    if not loads:
        return []
    if pool is not None:
        if getattr(pool, "_repro_point", None) != point:
            raise ValueError("pool was created for a different sweep "
                             "point; build it with sweep_pool(point)")
        try:
            return pool.map(_evaluate, loads)
        except OSError:
            pass
    else:
        requested = min(1 if workers is None else max(1, int(workers)),
                        len(loads))
        if requested > 1:
            with sweep_pool(point, requested) as ephemeral:
                if ephemeral is not None:
                    try:
                        return ephemeral.map(_evaluate, loads)
                    except OSError:
                        pass
    return [point(load) for load in loads]
