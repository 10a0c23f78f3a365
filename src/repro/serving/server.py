"""The serving facade: compile once, then simulate any policy/workload.

:class:`ServingStack` owns the expensive offline artifacts — the cost
model, the multi-version compiled libraries, the scheduling profiles and
the fitted interference proxy.  Every serve runs on fresh engines
through the fleet drive loop (:mod:`repro.cluster.fleet`); a single node
is a one-node fleet.  Policies are addressed by name:

========================  ====================================================
``model_fcfs``            whole-model FCFS (coarse baseline)
``layerwise``             Planaria-style spatial layer-wise baseline
``prema``                 PREMA-style temporal multitasking baseline
``block6`` / ``block11``  static layer blocks (granularity study)
``veltair_as``            adaptive scheduling only (dynamic blocks)
``veltair_ac``            adaptive compilation mixin on layer-wise units
``veltair_full``          full VELTAIR (Alg. 3): the mixin on dynamic blocks
``gacer``                 GACER-style concurrency regulation over block strides
========================  ====================================================
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.config import DEFAULT_SEED
from repro.hardware.platform import THREADRIPPER_3990X, CpuSpec, DeviceSpec
from repro.compiler.artifacts import ArtifactStore, resolve_store
from repro.compiler.costmodel import CostModel, CostModelParams
from repro.compiler.library import CompiledModel, ModelCompiler
from repro.compiler.multiversion import SinglePassCompiler
from repro.interference.proxy import (
    LinearInterferenceProxy,
    collect_aggregate_samples,
    fit_proxy,
)
from repro.models.registry import get_entry, get_model, model_names
from repro.runtime.engine import Engine
from repro.runtime.pricing import PricingCache
from repro.runtime.tasks import Query
from repro.scheduling.base import (
    DEFAULT_PLAN_CACHE_ENTRIES,
    ModelProfile,
    build_profile,
)
from repro.scheduling.dynamic_block import DynamicBlockScheduler
from repro.scheduling.fcfs_model import ModelWiseFcfs
from repro.scheduling.fixed_block import FixedBlockScheduler
from repro.scheduling.gacer import GacerScheduler
from repro.scheduling.layerwise import (
    AdaptiveCompilationOnly,
    LayerWiseScheduler,
)
from repro.scheduling.prema import PremaScheduler
from repro.scheduling.veltair import VeltairScheduler

POLICIES = ("model_fcfs", "layerwise", "prema", "block6", "block11",
            "veltair_as", "veltair_ac", "veltair_full", "gacer")
#: The policies that read the interference proxy.
PROXY_POLICIES = ("veltair_ac", "veltair_full")


@dataclass(frozen=True)
class NodeRuntime:
    """Per-device serving artifacts derived from one shared compile pass.

    A cluster deploys the stack's compiled libraries on nodes of
    possibly different widths and kinds.  The compiled *schedules* are
    machine descriptions and port as-is; what must be rebuilt per device
    spec is everything calibrated against one machine — the cost model
    itself, the scheduling profiles (unit requirements change with
    machine width and device economics), the pricing cache (prices are
    bound to one cost model), and the interference proxy (counter
    magnitudes do not port across specs).  Nodes with the same
    :class:`DeviceSpec` share one runtime, so a homogeneous fleet shares
    a single warm pricing cache.  The proxy is fitted on first read:
    only the proxy-driven policies and the pressure-reading routers and
    admission controller ask for it.
    """

    device: CpuSpec | DeviceSpec
    cost_model: CostModel
    price_cache: PricingCache
    profiles: dict[str, ModelProfile]
    fit_proxy: Callable[[], LinearInterferenceProxy | None] = field(
        repr=False, compare=False)

    @property
    def device_kind(self) -> str:
        return getattr(self.device, "kind", "cpu")

    @cached_property
    def proxy(self) -> LinearInterferenceProxy | None:
        """The interference proxy for this device, fitted on first read."""
        return self.fit_proxy()


class _LazyArtifacts(Mapping):
    """Name-keyed model artifacts, built on first access.

    Looks and iterates like the plain dict it replaced (model order
    preserved), but a lookup compiles/profiles only that model, so
    ``models=`` subsets and cluster fleets never pay for the whole zoo.
    ``values()``/``items()`` force the remaining models through one
    deduplicated batch compile instead of one pass per model.
    """

    def __init__(self, stack: "ServingStack", build) -> None:
        self._stack = stack
        self._build = build

    def __getitem__(self, name: str):
        if name not in self._stack._model_set:
            raise KeyError(name)
        return self._build(name)

    def __contains__(self, name) -> bool:
        # Mapping's default falls through to __getitem__, which would
        # compile a whole model as a side effect of a membership probe.
        return name in self._stack._model_set

    def __iter__(self):
        return iter(self._stack.model_names)

    def __len__(self) -> int:
        return len(self._stack.model_names)

    def values(self):
        self._stack.ensure_compiled()
        return [self._build(name) for name in self._stack.model_names]

    def items(self):
        self._stack.ensure_compiled()
        return [(name, self._build(name))
                for name in self._stack.model_names]


class ServingStack:
    """Offline artifacts + per-run engine construction."""

    def __init__(self, cpu: CpuSpec | None = None,
                 params: CostModelParams | None = None,
                 models: list[str] | None = None,
                 trials: int = 256,
                 use_proxy: bool = True,
                 proxy_scenarios: int = 240,
                 seed: int = DEFAULT_SEED,
                 price_cache_entries: int = 1 << 18,
                 plan_cache_entries: int = DEFAULT_PLAN_CACHE_ENTRIES,
                 artifact_store: ArtifactStore | str | Path | None = "auto",
                 compile_workers: int | None = None) -> None:
        self.cpu = cpu or THREADRIPPER_3990X
        self.cost_model = CostModel(self.cpu, params)
        #: Block pricing memo shared by every engine this stack builds:
        #: identical blocks recur across the runs of a QPS sweep, so the
        #: warm cache eliminates most cost-model pricing calls.  Size is
        #: bounded by ``price_cache_entries`` (batched FIFO eviction).
        self.price_cache = PricingCache(max_entries=price_cache_entries)
        #: Bound for the per-scheduler planning memos (required-core
        #: lookups and whole dynamic-block plans); one knob for every
        #: scheduler this stack builds, so long serve loops and cluster
        #: sweeps hold their steady-state footprint.
        self.plan_cache_entries = plan_cache_entries
        if compile_workers is None:
            compile_workers = int(os.environ.get("REPRO_COMPILE_WORKERS",
                                                 "1"))
        #: ``artifact_store`` threads the persistent compiled-artifact
        #: store through: ``"auto"`` (default) consults the
        #: REPRO_ARTIFACT_STORE environment variable, ``None`` disables
        #: persistence, a path or :class:`ArtifactStore` uses it
        #: directly.  Cached artifacts are bit-identical to fresh
        #: compiles, so a warm store changes wall-clock only.
        self.compiler = ModelCompiler(
            self.cost_model,
            SinglePassCompiler(self.cost_model, trials=trials, seed=seed),
            store=resolve_store(artifact_store),
            workers=compile_workers)
        self.seed = seed

        names = list(models) if models is not None else model_names()
        for name in names:
            get_entry(name)  # unknown models must fail at construction
        #: Model order of the stack (iteration order of ``compiled``).
        self.model_names = names
        self._model_set = frozenset(names)
        self._compiled: dict[str, CompiledModel] = {}
        self._profiles: dict[str, ModelProfile] = {}
        #: Lazily compiled per-model artifacts: a lookup compiles just
        #: that model (deduplicated against everything compiled so
        #: far); iteration forces the full set in one batch.
        self.compiled = _LazyArtifacts(self, self._model)
        self.profiles = _LazyArtifacts(self, self._profile)
        #: Compile passes this stack has performed.  Stays at 1 for the
        #: stack's whole life: models compile lazily *within* the one
        #: pass, and per-node runtimes re-profile but never re-compile
        #: (the cluster benchmark asserts exactly this).
        self.artifact_builds = 1

        self._proxy_scenarios = proxy_scenarios
        self._use_proxy = use_proxy

        #: Per-DeviceSpec runtimes derived from the one compile pass above.
        self._runtimes: dict[CpuSpec | DeviceSpec, NodeRuntime] = {}

    # ------------------------------------------------------------------
    # lazy artifact construction

    def ensure_compiled(self, names: list[str] | None = None) -> None:
        """Force compilation of ``names`` (default: every model).

        One deduplicated batch through the compiler — with a warm
        artifact store nothing recompiles, with ``compile_workers > 1``
        missing layers fan out over the fork pool.  Idempotent.
        """
        pending = [name for name in (names if names is not None
                                     else self.model_names)
                   if name not in self._compiled]
        if not pending:
            return
        specs = [(get_model(name), get_entry(name).qos_s)
                 for name in pending]
        for name, compiled in zip(pending,
                                  self.compiler.compile_models(specs)):
            self._compiled[name] = compiled

    def _model(self, name: str) -> CompiledModel:
        if name not in self._compiled:
            self.ensure_compiled([name])
        return self._compiled[name]

    def _profile(self, name: str) -> ModelProfile:
        profile = self._profiles.get(name)
        if profile is None:
            profile = build_profile(self.cost_model, self._model(name))
            self._profiles[name] = profile
        return profile

    @property
    def artifact_store(self) -> ArtifactStore | None:
        """The persistent store the compiler reads/writes, if any."""
        return self.compiler.store

    @property
    def proxy(self) -> LinearInterferenceProxy | None:
        """The stack device's interference proxy (fitted on first read)."""
        return self.runtime_for().proxy

    def _fit_proxy(self, cost_model: CostModel) -> LinearInterferenceProxy:
        """Fit the counter proxy against one machine's cost model.

        Counter magnitudes (and therefore the fitted weights and access
        scale) depend on the CPU spec, so each distinct node width gets
        its own fit over the same compiled models.
        """
        samples = collect_aggregate_samples(
            cost_model, list(self.compiled.values()),
            scenarios=self._proxy_scenarios, seed=self.seed)
        return fit_proxy(samples)

    # ------------------------------------------------------------------

    def runtime_for(self,
                    cpu: CpuSpec | DeviceSpec | None = None) -> NodeRuntime:
        """Serving artifacts for one node device — compile once, re-profile.

        The stack's own device (or ``None``) returns a view over the
        stack's existing cost model, profiles, and shared pricing cache.
        A different :class:`DeviceSpec` — another CPU width or an
        accelerator — gets its own cost model, freshly built profiles,
        and a pricing cache of its own (prices do not port across
        machines) — but the *compiled* multi-version libraries are
        shared untouched, so a whole heterogeneous fleet rides on a
        single compile pass.  Runtimes are memoised per spec.
        """
        cpu = cpu if cpu is not None else self.cpu
        runtime = self._runtimes.get(cpu)
        if runtime is not None:
            return runtime
        if cpu == self.cpu:
            cost_model, price_cache, profiles = (
                self.cost_model, self.price_cache, self.profiles)
        else:
            cost_model = CostModel(cpu, self.cost_model.params)
            price_cache = PricingCache(
                max_entries=self.price_cache.max_entries)
            profiles = {name: build_profile(cost_model, compiled)
                        for name, compiled in self.compiled.items()}
        runtime = NodeRuntime(
            device=cpu, cost_model=cost_model, price_cache=price_cache,
            profiles=profiles,
            # Fitted per device: the proxy reads chip-wide counter
            # magnitudes, which do not port across machine specs.
            fit_proxy=lambda: (self._fit_proxy(cost_model)
                               if self._use_proxy else None))
        self._runtimes[cpu] = runtime
        return runtime

    def make_scheduler(self, policy: str, runtime: NodeRuntime | None = None):
        """Instantiate a named policy bound to this stack's artifacts.

        ``runtime`` binds the policy to a per-node runtime (from
        :meth:`runtime_for`; default: the stack's own machine) — how a
        cluster builds one scheduler per node over shared artifacts.
        """
        runtime = runtime if runtime is not None else self.runtime_for()
        cost_model, profiles = runtime.cost_model, runtime.profiles
        if policy == "model_fcfs":
            return ModelWiseFcfs(cost_model, profiles)
        if policy == "layerwise":
            return LayerWiseScheduler(cost_model, profiles)
        if policy == "prema":
            return PremaScheduler(cost_model, profiles)
        if policy.startswith("block"):
            size = int(policy.removeprefix("block"))
            return FixedBlockScheduler(
                cost_model, profiles, block_size=size,
                plan_cache_entries=self.plan_cache_entries)
        if policy == "veltair_as":
            return DynamicBlockScheduler(
                cost_model, profiles,
                plan_cache_entries=self.plan_cache_entries)
        if policy == "gacer":
            return GacerScheduler(
                cost_model, profiles,
                plan_cache_entries=self.plan_cache_entries)
        # Only the proxy-driven policies read the proxy — referencing
        # ``runtime.proxy`` here would trigger the lazy fit for everyone.
        if policy == "veltair_ac":
            return AdaptiveCompilationOnly(
                cost_model, profiles, proxy=runtime.proxy,
                plan_cache_entries=self.plan_cache_entries)
        if policy == "veltair_full":
            return VeltairScheduler(
                cost_model, profiles, proxy=runtime.proxy,
                plan_cache_entries=self.plan_cache_entries)
        raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")

    def run(self, policy: str, queries: list[Query],
            tracer=None) -> tuple[list[Query], Engine]:
        """Serve one query stream on this stack's device.

        A single node is a one-node fleet: a ``round_robin``
        :class:`~repro.cluster.fleet.Cluster` over ``homogeneous(1)``.
        Returns the node's ``(completed, engine)``.  ``tracer`` (a
        :class:`repro.telemetry.Tracer`) records the serve without
        changing its results.
        """
        # Imported here: repro.cluster sits above repro.serving.
        from repro.cluster import Cluster, homogeneous
        cluster = Cluster(self, homogeneous(1, device=self.cpu,
                                            policy=policy),
                          router="round_robin")
        cluster.serve(queries, tracer=tracer)
        engine = cluster.last_nodes[0].engine
        return engine.completed, engine

    # ------------------------------------------------------------------

    def isolated_model_latency(self, name: str,
                               cores: int | None = None) -> float:
        """Solo-run latency: the model alone on the machine (Fig. 13 base)."""
        compiled = self.compiled[name]
        profile = self.profiles[name]
        cores = cores if cores is not None else self.cpu.cores
        launch = self.cost_model.launch_s
        total = self.cost_model.spawn_overhead(cores)
        for layer, version in zip(compiled.graph.layers,
                                  profile.static_versions):
            total += self.cost_model.latency(layer, version, cores,
                                             0.0) + launch
        return total
