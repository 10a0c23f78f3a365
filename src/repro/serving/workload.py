"""Query stream generation following the MLPerf server scenario.

Arrivals are Poisson with rate ``qps`` (paper Sec. 5.1); the mixed
workload draws each model with frequency inversely proportional to its
QoS target, as the paper does following datacenter trace analyses.

Every stream is drawn by :func:`scenario_queries` from a scenario of
:mod:`repro.workloads`: the stationary ``"poisson"`` default, the
deterministic ``"uniform"`` stream of the granularity study (Fig. 3),
or a trace-driven shape (bursty MMPP, diurnal ramps, flash crowds,
tenant churn, trace replay).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.library import CompiledModel
from repro.models.registry import (
    HEAVY,
    LIGHT,
    MEDIUM,
    get_entry,
    model_names,
)
from repro.runtime.tasks import Query


@dataclass(frozen=True)
class WorkloadSpec:
    """A named mixture of models with sampling weights."""

    name: str
    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError(f"workload {self.name!r} is empty")
        if any(weight <= 0 for _, weight in self.entries):
            raise ValueError(f"workload {self.name!r} has non-positive "
                             "weights")

    @property
    def models(self) -> list[str]:
        return [name for name, _ in self.entries]

    def probabilities(self) -> np.ndarray:
        weights = np.array([w for _, w in self.entries], dtype=float)
        return weights / weights.sum()


def single_model(name: str) -> WorkloadSpec:
    """A stream of one model only (the per-model columns of Fig. 12)."""
    return WorkloadSpec(name=name, entries=((name, 1.0),))


def class_mix(workload_class: str) -> WorkloadSpec:
    """Equal mix of the Table 2 models in one class (light/medium/heavy)."""
    names = [n for n in model_names()
             if get_entry(n).workload_class == workload_class]
    return WorkloadSpec(name=workload_class,
                        entries=tuple((n, 1.0) for n in names))


def full_mix() -> WorkloadSpec:
    """All models, frequency inversely proportional to the QoS target."""
    return WorkloadSpec(
        name="mix",
        entries=tuple((n, 1.0 / get_entry(n).qos_ms)
                      for n in model_names()))


LIGHT_MIX = class_mix(LIGHT)
MEDIUM_MIX = class_mix(MEDIUM)
HEAVY_MIX = class_mix(HEAVY)


def scenario_queries(compiled: dict[str, CompiledModel],
                     scenario, qps: float, count: int,
                     seed: int | None = None,
                     spec: WorkloadSpec | None = None) -> list[Query]:
    """``count`` queries of a :class:`~repro.workloads.ScenarioSpec`.

    The one query generator of the serving layer.  ``scenario`` may be
    a spec, a registered scenario name, or ``None`` for the paper's
    ``"poisson"`` default; a mix-agnostic scenario draws its models
    from ``spec``.  Equivalent to ``scenario.queries(...)``.  (Import
    is lazy: ``repro.workloads`` sits above this module in the
    layering.)
    """
    from repro.workloads.scenario import resolve_scenario
    return resolve_scenario(scenario).queries(compiled, qps, count,
                                              seed=seed, spec=spec)

