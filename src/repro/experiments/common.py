"""Shared experiment harness: world building and system runners.

A *world* is one (model, dataset) pair with its 7:3 warm/test split
materialized: profiled warm traces for policy warm-up, plus the test
requests the engine serves.  ``run_system`` builds the named policy, warms
it, and produces a :class:`~repro.serving.metrics.ServingReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.baselines import (
    BasePolicy,
    DeepSpeedPolicy,
    MixtralOffloadingPolicy,
    MoEInfinityPolicy,
    NoOffloadPolicy,
    OraclePolicy,
    ProMoEPolicy,
)
from repro.core.policy import FMoEPolicy
from repro.errors import ConfigError
from repro.moe.config import MoEModelConfig, get_model_config
from repro.moe.model import MoEModel
from repro.serving.engine import ServingEngine
from repro.serving.events import EngineObserver
from repro.serving.faults import FaultSchedule, SLOConfig
from repro.serving.hardware import DEFAULT_HARDWARE, HardwareConfig
from repro.serving.metrics import ServingReport
from repro.serving.request import Request
from repro.workloads.azure import AzureTraceConfig, make_azure_trace
from repro.workloads.datasets import get_dataset_profile, make_dataset
from repro.workloads.profiler import RequestTrace, collect_history
from repro.workloads.split import warm_test_split

#: The five systems compared throughout the paper's evaluation.
SYSTEM_NAMES: tuple[str, ...] = (
    "fmoe",
    "deepspeed-inference",
    "mixtral-offloading",
    "promoe",
    "moe-infinity",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments (defaults follow §6.1)."""

    model_name: str = "mixtral-8x7b"
    dataset: str = "lmsys-chat-1m"
    num_requests: int = 40
    num_test_requests: int = 8
    cache_fraction: float | None = None
    """Budget as a fraction of total expert bytes (overrides the
    working-set multiplier when set)."""

    cache_working_set_multiplier: float = 0.9
    """Default budget: this multiple of one iteration's expert working set
    (L·K experts).  Keeps every model in the memory-scarce regime the
    paper's evaluation emphasizes, independent of how many experts it has;
    for Mixtral it is ~20 GB (between the 12 and 24 GB points of the
    Fig. 11 sweep), and it reproduces the paper's Fig. 9 margins most
    closely among the multipliers we calibrated."""

    cache_budget_bytes: int | None = None
    prefetch_distance: int = 3
    store_capacity: int = 1024
    batch_size: int = 1
    seed: int = 0
    hardware: HardwareConfig = field(default_factory=lambda: DEFAULT_HARDWARE)

    def __post_init__(self) -> None:
        for name in ("prefetch_distance", "store_capacity", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )

    def resolve_budget(self, model: MoEModelConfig) -> int:
        """Expert-cache bytes for ``model`` under this configuration."""
        if self.cache_budget_bytes is not None:
            return self.cache_budget_bytes
        if self.cache_fraction is not None:
            return int(self.cache_fraction * model.total_expert_bytes)
        working_set = model.num_layers * model.top_k * model.expert_bytes
        budget = int(self.cache_working_set_multiplier * working_set)
        # The pool needs at least one expert per GPU.
        return max(budget, self.hardware.num_gpus * model.expert_bytes)

    def with_(self, **changes: object) -> "ExperimentConfig":
        """A copy of this config with ``changes`` applied."""
        return replace(self, **changes)


@dataclass
class World:
    """A materialized (model, dataset) experiment environment."""

    config: ExperimentConfig
    model_config: MoEModelConfig
    warm_traces: list[RequestTrace]
    test_requests: list[Request]
    model: MoEModel | None = field(default=None, repr=False, compare=False)

    def fresh_model(self) -> MoEModel:
        """The world's model, built on first use and shared afterwards.

        Its routing archetypes depend only on (model config, seed) and a
        model holds no run state (each request session owns its RNG), so
        every engine of the world serves from one instance; its arrays
        are read-only.
        """
        if self.model is None:
            self.model = MoEModel(self.model_config, seed=self.config.seed)
        return self.model


def build_world(config: ExperimentConfig) -> World:
    """Sample the dataset, split 7:3, and profile the warm portion."""
    model_config = get_model_config(config.model_name)
    profile = get_dataset_profile(config.dataset)
    requests = make_dataset(
        profile, config.num_requests, seed=config.seed + 1
    )
    warm, test = warm_test_split(requests, 0.7, seed=config.seed + 2)
    if config.num_test_requests is not None:
        test = test[: config.num_test_requests]
    model = MoEModel(model_config, seed=config.seed)
    warm_traces = collect_history(model, warm)
    return World(
        config=config,
        model_config=model_config,
        warm_traces=warm_traces,
        test_requests=test,
        model=model,
    )


#: Every system :func:`make_policy` builds, keyed by name: the five
#: compared systems plus the no-offload floor and the oracle bound.
_POLICY_FACTORIES: dict[str, Callable[[ExperimentConfig], BasePolicy]] = {
    "fmoe": lambda config: FMoEPolicy(
        prefetch_distance=config.prefetch_distance,
        store_capacity=config.store_capacity,
    ),
    "deepspeed-inference": lambda config: DeepSpeedPolicy(),
    "mixtral-offloading": lambda config: MixtralOffloadingPolicy(),
    "promoe": lambda config: ProMoEPolicy(
        prefetch_distance=config.prefetch_distance
    ),
    "moe-infinity": lambda config: MoEInfinityPolicy(
        prefetch_distance=config.prefetch_distance
    ),
    "no-offload": lambda config: NoOffloadPolicy(),
    "oracle": lambda config: OraclePolicy(
        prefetch_distance=config.prefetch_distance
    ),
}

#: Names :func:`make_policy` accepts (a superset of :data:`SYSTEM_NAMES`).
POLICY_NAMES: tuple[str, ...] = tuple(_POLICY_FACTORIES)


def make_policy(name: str, config: ExperimentConfig) -> BasePolicy:
    """Instantiate one of the compared systems by name."""
    try:
        factory = _POLICY_FACTORIES[name]
    except KeyError:
        raise ConfigError(f"unknown system {name!r}") from None
    return factory(config)


def make_engine(
    world: World,
    system: str,
    policy: BasePolicy | None = None,
    cache_budget_bytes: int | None = None,
    faults: FaultSchedule | None = None,
    slo: SLOConfig | None = None,
    hardware: HardwareConfig | None = None,
) -> ServingEngine:
    """Build a fresh engine for ``world`` under one system.

    The single construction path shared by :func:`run_system` and the
    cluster driver (one engine per replica), so a 1-replica cluster run
    is the same machine as a bare run.  ``policy`` overrides the default
    :func:`make_policy` construction (shared-store cluster replicas);
    ``hardware`` overrides the world's base hardware (heterogeneous-fleet
    replicas derive their own latency constants from a
    :class:`~repro.cluster.config.ReplicaProfile`).
    """
    config = world.config
    if policy is None:
        policy = make_policy(system, config)
    if hardware is None:
        hardware = config.hardware
    budget = cache_budget_bytes
    if budget is None:
        budget = config.resolve_budget(world.model_config)
    if system == "no-offload":
        # The latency floor needs every expert resident; add per-device
        # headroom because round-robin placement is not perfectly even.
        model = world.model_config
        headroom = (
            hardware.num_gpus
            * model.experts_per_layer
            * model.expert_bytes
        )
        budget = max(budget, model.total_expert_bytes + headroom)
    return ServingEngine(
        world.fresh_model(),
        policy,
        cache_budget_bytes=budget,
        hardware=hardware,
        faults=faults,
        slo=slo,
    )


def run_system(
    world: World,
    system: str,
    warm: bool = True,
    requests: Sequence[Request] | None = None,
    respect_arrivals: bool = False,
    batch_size: int | None = None,
    cache_budget_bytes: int | None = None,
    faults: FaultSchedule | None = None,
    slo: SLOConfig | None = None,
    observers: Sequence[EngineObserver] = (),
    monitor=None,
    mutate=None,
) -> ServingReport:
    """Serve the world's test requests under one system.

    ``observers`` (each a :class:`repro.serving.events.EngineObserver`:
    a :class:`repro.obs.telemetry.Telemetry`, an event sink, ...) are
    subscribed to the engine in order; they observe through the virtual
    clock and leave the latency results untouched.  ``monitor`` (a
    :class:`repro.validate.monitors.MonitorSuite`) binds invariant
    checking to the engine's event stream — the caller runs its
    end-of-run checks via ``monitor.finish``.  ``mutate`` is a callable
    applied to the freshly built engine (the validation harness injects
    registered defects through it).
    """
    config = world.config
    engine = make_engine(
        world,
        system,
        cache_budget_bytes=cache_budget_bytes,
        faults=faults,
        slo=slo,
    )
    if mutate is not None:
        mutate(engine)
    for observer in observers:
        engine.subscribe(observer)
    if monitor is not None:
        monitor.bind(engine)
    if warm:
        engine.policy.warm(world.warm_traces)
    report = engine.run(
        list(requests) if requests is not None else world.test_requests,
        batch_size=batch_size or config.batch_size,
        respect_arrivals=respect_arrivals,
    )
    return report


def online_trace(
    config: ExperimentConfig,
    trace_requests: int,
    rate_seconds: float,
    seed_offset: int,
) -> list[Request]:
    """The shared online arrival trace every cell of one experiment replays.

    An Azure-style arrival trace over the world's dataset, seeded at
    ``config.seed + seed_offset``.  Each experiment pins its own offset,
    so its committed results stay reproducible.
    """
    return make_azure_trace(
        AzureTraceConfig(
            num_requests=trace_requests,
            mean_interarrival_seconds=rate_seconds,
        ),
        get_dataset_profile(config.dataset),
        seed=config.seed + seed_offset,
    )


def calibrated_deadline(report: ServingReport, multiplier: float) -> float:
    """A deadline calibrated on a healthy reference run.

    ``multiplier`` times the reference's p95 end-to-end latency, floored
    at one second so a near-instant reference still leaves a usable
    budget.  The A/B sweeps set their SLO deadlines (and the chaos
    matrix its queue-delay budgets) this way.
    """
    return max(multiplier * report.percentile_latency(95), 1.0)
