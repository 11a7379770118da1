"""Cluster-level configuration: replica fleet shape and autoscaling knobs.

Kept dependency-light on purpose: :class:`ClusterSpec` rides inside the
parallel runner's picklable :class:`~repro.experiments.runner.SimCell`, so
this module must be importable without pulling in the serving stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.hardware import HardwareConfig

#: Pluggable routing policies the cluster driver knows how to build.
ROUTER_NAMES: tuple[str, ...] = (
    "round-robin",
    "least-outstanding",
    "semantic-affinity",
    "cost-aware",
)

#: Expert-placement strategies the cluster driver knows how to build.
PLACEMENT_NAMES: tuple[str, ...] = (
    "uniform",
    "cost-aware",
)


@dataclass(frozen=True)
class ReplicaProfile:
    """Per-replica hardware description, expressed as deltas.

    A profile scales the world's base :class:`HardwareConfig` rather than
    replacing it, so fleet shapes stay portable across models and testbeds.
    Every scale defaults to ``1.0``, and a default profile returns the
    base hardware and budget unchanged, so every replica of a homogeneous
    fleet — profiled or not — is built from the same base machine.

    ``dollars_per_hour`` and ``spot`` feed the price-aware autoscaler and
    the SLO-per-dollar fleet benchmark; they never touch latency.
    """

    name: str = "baseline"
    pcie_scale: float = 1.0
    """Host-to-device interconnect bandwidth multiplier (NVLink-class
    hosts raise it; PCIe 3.0-era boxes lower it)."""

    vram_scale: float = 1.0
    """Per-GPU memory multiplier; also scales the replica's expert-cache
    budget."""

    flops_scale: float = 1.0
    membw_scale: float = 1.0
    dollars_per_hour: float = 1.0
    spot: bool = False
    """Spot-preemptible capacity: cheaper, first in line for retirement
    when the price-aware autoscaler scales down."""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("profile name must be non-empty")
        for field_name in (
            "pcie_scale",
            "vram_scale",
            "flops_scale",
            "membw_scale",
            "dollars_per_hour",
        ):
            if getattr(self, field_name) <= 0:
                raise ConfigError(f"{field_name} must be > 0")

    @property
    def is_default(self) -> bool:
        """True when the profile leaves the base hardware untouched."""
        return (
            self.pcie_scale == 1.0
            and self.vram_scale == 1.0
            and self.flops_scale == 1.0
            and self.membw_scale == 1.0
        )

    def apply(self, base: "HardwareConfig") -> "HardwareConfig":
        """Derive this replica's hardware from the fleet's base config."""
        if self.is_default:
            return base
        return replace(
            base,
            pcie_bandwidth_bps=base.pcie_bandwidth_bps * self.pcie_scale,
            gpu_memory_bytes=int(base.gpu_memory_bytes * self.vram_scale),
            gpu_flops=base.gpu_flops * self.flops_scale,
            gpu_memory_bandwidth_bps=(
                base.gpu_memory_bandwidth_bps * self.membw_scale
            ),
        )

    def scale_budget(self, cache_budget_bytes: int) -> int:
        """Scale the fleet-wide expert-cache budget to this replica."""
        if self.vram_scale == 1.0:
            return cache_budget_bytes
        return int(cache_budget_bytes * self.vram_scale)


#: Named fleet building blocks used by the CLI, tests, and benchmarks.
REPLICA_PROFILES: dict[str, ReplicaProfile] = {
    "baseline": ReplicaProfile(),
    "fast-nvlink": ReplicaProfile(
        name="fast-nvlink",
        pcie_scale=4.0,
        flops_scale=1.5,
        membw_scale=1.2,
        dollars_per_hour=3.2,
    ),
    "slow-pcie3": ReplicaProfile(
        name="slow-pcie3",
        pcie_scale=0.5,
        flops_scale=0.8,
        dollars_per_hour=0.6,
    ),
    "spot-small": ReplicaProfile(
        name="spot-small",
        pcie_scale=0.5,
        vram_scale=0.5,
        flops_scale=0.7,
        dollars_per_hour=0.35,
        spot=True,
    ),
    "big-vram": ReplicaProfile(
        name="big-vram",
        vram_scale=2.0,
        dollars_per_hour=2.0,
    ),
}


def get_profile(name: str) -> ReplicaProfile:
    """Look up a named replica profile (:data:`REPLICA_PROFILES`)."""
    try:
        return REPLICA_PROFILES[name]
    except KeyError:
        raise ConfigError(
            f"unknown replica profile {name!r}; "
            f"choose from: {', '.join(sorted(REPLICA_PROFILES))}"
        ) from None


@dataclass(frozen=True)
class AutoscalerConfig:
    """Knobs of the virtual-clock autoscaler (queue + tail-latency driven).

    The autoscaler evaluates at request-dispatch points: it adds a replica
    when the fleet-mean outstanding request count (or the recent p95 TTFT)
    crosses the scale-up thresholds, and marks the least-loaded replica
    *draining* when load falls below the scale-down threshold.  A draining
    replica receives no new requests and is retired only once its last
    in-flight request has finished — drain-before-kill.
    """

    min_replicas: int = 1
    max_replicas: int = 8
    scale_up_queue_depth: float = 4.0
    """Fleet-mean outstanding requests per replica that triggers a new
    replica."""

    scale_up_p95_ttft_seconds: float | None = None
    """Recent-window p95 TTFT that triggers a new replica (None: queue
    depth only)."""

    scale_down_queue_depth: float = 1.0
    """Fleet-mean outstanding requests per replica below which one replica
    starts draining."""

    cooldown_seconds: float = 10.0
    """Minimum virtual time between scaling actions."""

    ttft_window: int = 16
    """Recently finished requests the p95-TTFT signal is computed over."""

    price_aware: bool = False
    """Retire the worst SLO-per-dollar replica instead of the least
    loaded one when scaling down (spot replicas break ties first), using
    per-replica TTFT windows scored against ``ttft_good_seconds``."""

    ttft_good_seconds: float | None = None
    """TTFT at or below which a request counts as *good* for the
    price-aware SLO-per-dollar score (None: every served request is
    good, so the score reduces to 1 / dollars-per-hour)."""

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ConfigError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ConfigError("max_replicas must be >= min_replicas")
        if self.scale_up_queue_depth <= self.scale_down_queue_depth:
            raise ConfigError(
                "scale_up_queue_depth must exceed scale_down_queue_depth"
            )
        if (
            self.scale_up_p95_ttft_seconds is not None
            and self.scale_up_p95_ttft_seconds <= 0
        ):
            raise ConfigError("scale_up_p95_ttft_seconds must be > 0")
        if self.cooldown_seconds < 0:
            raise ConfigError("cooldown_seconds must be >= 0")
        if self.ttft_window < 1:
            raise ConfigError("ttft_window must be >= 1")
        if self.ttft_good_seconds is not None and self.ttft_good_seconds <= 0:
            raise ConfigError("ttft_good_seconds must be > 0 (or None)")


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the cluster resilience layer (all features opt-in).

    Attached to :class:`ClusterSpec`.  Every cluster run tracks one
    outcome per request on the same dispatch path; ``None`` on the spec
    leaves every gate below off, and the report carries a
    ``resilience`` section only when this config or cluster faults are
    set.  Each feature degrades to off when its knob is ``None``:

    - **admission control** — a token bucket (``admission_rate`` /
      ``admission_burst``) plus the degradation ladder's shed rung;
      requests with ``priority >= priority_bypass_level`` are never shed
      at admission.
    - **degradation ladder** — fleet-mean queue depth drives service
      down the rungs *full → prefetch-off → expert-substitution → shed*
      (the SMoE-style nearest-resident substitution becomes a measured
      rung instead of a hidden fault fallback).
    - **retry budget** — cross-replica re-dispatch of shed or
      crash-lost requests, globally capped at
      ``retry_budget_fraction`` of routed requests so retries can never
      storm.
    - **hedged dispatch** — a request whose primary TTFT exceeds
      ``hedge_after_seconds`` is re-dispatched to a second replica;
      first response wins, the loser is counted as cancelled work.
    - **circuit breakers** — per-replica closed/open/half-open state on
      a rolling failure window; open replicas leave the router's
      candidate set, half-open replicas receive probe requests.
    """

    admission_rate: float | None = None
    """Token-bucket admission rate in requests per virtual second
    (None: no rate limit)."""

    admission_burst: int = 8
    priority_bypass_level: int | None = None
    """Requests with ``priority`` at or above this are never shed by
    admission control (None: no bypass)."""

    prefetch_off_depth: float | None = 6.0
    """Fleet-mean outstanding requests per replica at which prefetching
    is switched off (ladder rung 1; None disables the rung)."""

    substitution_depth: float | None = 10.0
    """Queue depth at which misses are served by nearest-resident
    substitution instead of blocking loads (rung 2; None disables)."""

    shed_depth: float | None = 14.0
    """Queue depth at which new arrivals are shed outright (rung 3;
    None disables)."""

    retry_budget_fraction: float = 0.25
    """Global retry budget: re-dispatches may never exceed this fraction
    of routed requests."""

    max_attempts_per_request: int = 2
    hedge_after_seconds: float | None = None
    """Hedge a request whose primary TTFT exceeds this (None: hedging
    off)."""

    hedge_budget_fraction: float = 0.1
    """Hedges may never exceed this fraction of routed requests."""

    breakers_enabled: bool = True
    breaker_window: int = 8
    """Rolling per-replica outcome window the failure rate is computed
    over."""

    breaker_min_samples: int = 4
    breaker_failure_threshold: float = 0.5
    """Failure rate at which a closed breaker opens."""

    breaker_open_seconds: float = 20.0
    """Seconds an open breaker waits before allowing a half-open probe."""

    breaker_failure_ttft_seconds: float | None = None
    """Count a served request as a breaker *failure* when its TTFT
    exceeds this (None: only sheds and crashes count)."""

    restart_warm_from_store: bool = True
    """Restarted replicas share the cluster's shared expert-map store
    when one exists (their ExpertPool still rejoins cold)."""

    def __post_init__(self) -> None:
        if self.admission_rate is not None and self.admission_rate <= 0:
            raise ConfigError("admission_rate must be > 0 (or None)")
        if self.admission_burst < 1:
            raise ConfigError("admission_burst must be >= 1")
        depths = [
            ("prefetch_off_depth", self.prefetch_off_depth),
            ("substitution_depth", self.substitution_depth),
            ("shed_depth", self.shed_depth),
        ]
        for name, value in depths:
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be > 0 (or None)")
        ordered = [v for _, v in depths if v is not None]
        if ordered != sorted(ordered):
            raise ConfigError(
                "degradation depths must be non-decreasing: "
                "prefetch_off <= substitution <= shed"
            )
        for name in ("retry_budget_fraction", "hedge_budget_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.max_attempts_per_request < 1:
            raise ConfigError("max_attempts_per_request must be >= 1")
        if self.hedge_after_seconds is not None and (
            self.hedge_after_seconds <= 0
        ):
            raise ConfigError("hedge_after_seconds must be > 0 (or None)")
        if self.breaker_window < 1:
            raise ConfigError("breaker_window must be >= 1")
        if self.breaker_min_samples < 1:
            raise ConfigError("breaker_min_samples must be >= 1")
        if self.breaker_min_samples > self.breaker_window:
            raise ConfigError(
                "breaker_min_samples must be <= breaker_window"
            )
        if not 0.0 < self.breaker_failure_threshold <= 1.0:
            raise ConfigError(
                "breaker_failure_threshold must be in (0, 1]"
            )
        if self.breaker_open_seconds <= 0:
            raise ConfigError("breaker_open_seconds must be > 0")
        if self.breaker_failure_ttft_seconds is not None and (
            self.breaker_failure_ttft_seconds <= 0
        ):
            raise ConfigError(
                "breaker_failure_ttft_seconds must be > 0 (or None)"
            )


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of one simulated cluster: replicas, router, store topology.

    Fully picklable — a cluster cell is one
    :class:`~repro.experiments.runner.SimCell` unit, so every field here
    must survive a trip through a process pool.
    """

    replicas: int = 2
    router: str = "round-robin"
    shared_store: bool = False
    """Share one expert-map store across every fMoE replica instead of
    giving each replica a private store."""

    warm: bool = True
    """Warm each replica's policy with the world's profiled traces (a
    cold start lets per-replica stores diverge, which is what
    semantic-affinity routing exploits)."""

    autoscaler: AutoscalerConfig | None = None
    fault_replica: int | None = None
    """Apply the cell's fault schedule to this replica only (None: every
    replica lives on the same degrading fleet)."""

    route_around_device_loss: bool = True
    """Stop routing new requests to a replica that has lost a device
    (router failover); the replica still finishes what it already holds."""

    resilience: ResilienceConfig | None = None
    """Cluster resilience layer (admission control, degradation ladder,
    retry budgets, hedged dispatch, circuit breakers).  ``None`` turns
    every gate off and omits the report's ``resilience`` section (unless
    cluster faults are scripted)."""

    profiles: tuple[ReplicaProfile, ...] | None = None
    """Per-replica hardware profiles; replica ``i`` (including replicas
    spawned later by the autoscaler) uses ``profiles[i % len(profiles)]``.
    ``None`` keeps every replica on the world's base hardware and omits
    the report's ``fleet`` section."""

    placement: str | None = None
    """Expert-placement strategy pre-warming each replica's cache from a
    :class:`~repro.cluster.placement.PlacementPlan` (``None``: no plan and,
    without ``profiles``, no ``fleet`` report section)."""

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigError("replicas must be >= 1")
        if self.router not in ROUTER_NAMES:
            raise ConfigError(
                f"unknown router {self.router!r}; "
                f"choose from: {', '.join(ROUTER_NAMES)}"
            )
        if self.fault_replica is not None and self.fault_replica < 0:
            raise ConfigError("fault_replica must be >= 0")
        if self.profiles is not None and len(self.profiles) == 0:
            raise ConfigError("profiles must be non-empty (or None)")
        if (
            self.placement is not None
            and self.placement not in PLACEMENT_NAMES
        ):
            raise ConfigError(
                f"unknown placement {self.placement!r}; "
                f"choose from: {', '.join(PLACEMENT_NAMES)}"
            )

    def profile_for(self, replica_id: int) -> ReplicaProfile:
        """Profile of replica ``replica_id`` (baseline when unset)."""
        if self.profiles is None:
            return REPLICA_PROFILES["baseline"]
        return self.profiles[replica_id % len(self.profiles)]
