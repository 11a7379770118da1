"""Storm: a multi-tenant day of traffic against the priority-aware cluster.

The experiment behind ``repro storm``.  Each requested scale (``10k``,
``100k``, ``1m`` offered requests) gets two measurements:

- **Census** — the *entire* day is streamed through
  :func:`~repro.workloads.traffic.traffic_census`.  This is the
  memory-bound leg: the lazy heap-merge keeps peak allocation at
  O(tenants x block) no matter the scale, which is what lets a
  million-request day run inside CI (the smoke test pins the peak with
  ``tracemalloc``).
- **Simulation window** — the first ``sim_requests`` arrivals replay
  through a shared-store cluster with admission control and a premium
  bypass (``priority_bypass_level``).  The admission rate is fixed across
  scales, so rising offered load turns into overload naturally: at
  ``10k`` the bucket never empties, at ``1m`` the lower tiers shed while
  premium rides the bypass — the per-tier SLO-attainment split the
  priority scheduler exists to produce.

Per tenant, the window additionally runs *solo* (same spec, that
tenant's arrivals only); the drop from solo to mixed expert-cache hit
rate is the noisy-neighbor cache-pollution metric.

Everything is a pure function of (config, scales, knobs): reports come
from seeded :class:`~repro.experiments.runner.SimCell` runs, so rows are
byte-deterministic at any ``jobs`` level.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, replace
from itertools import islice
from typing import Sequence

from repro.cluster.config import ClusterSpec, ResilienceConfig
from repro.errors import ConfigError
from repro.experiments.common import ExperimentConfig, calibrated_deadline
from repro.experiments.runner import SimCell, WorldCache, run_cells
from repro.obs.slo import TieredSLOTracker
from repro.workloads.traffic import (
    PREMIUM_PRIORITY,
    TrafficCensus,
    TrafficConfig,
    default_storm_traffic,
    stream_traffic,
    traffic_census,
)

#: The canonical benchmark scales, in ascending offered load.
DEFAULT_SCALES = ("10k", "100k", "1m")


def parse_scale(text: str) -> tuple[str, int]:
    """``"10k"``/``"1m"``/``"2500"`` -> (normalized label, request count)."""
    label = text.strip().lower()
    try:
        if label.endswith("k"):
            count = int(float(label[:-1]) * 1_000)
        elif label.endswith("m"):
            count = int(float(label[:-1]) * 1_000_000)
        else:
            count = int(label)
    except ValueError:
        raise ConfigError(
            f"bad scale {text!r}; use forms like 10k, 100k, 1m, or 2500"
        ) from None
    if count < 3:
        raise ConfigError(f"scale {text!r} too small (need >= 3 requests)")
    return label, count


def census_with_peak_alloc(
    traffic: TrafficConfig,
) -> tuple[TrafficCensus, int]:
    """Stream the full day under ``tracemalloc``; return (census, peak bytes).

    The memory-bound proof: the peak is a function of tenant count and
    :data:`~repro.workloads.traffic.BLOCK_REQUESTS`, not of the day's
    length.  Measurement only — the peak never lands in benchmark
    payloads (allocator noise is not deterministic; the census is).
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        census = traffic_census(stream_traffic(traffic))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return census, peak


@dataclass(frozen=True)
class StormTierRow:
    """One SLO tier's client-perceived outcome inside one scale's window."""

    scale: str
    tier: str
    offered: int
    served: int
    shed: int
    failed: int
    shed_rate: float
    ttft_p50: float | None
    ttft_p95: float | None
    ttft_p99: float | None
    slo_attainment: float
    budget_consumed: float

    def format(self) -> str:
        """One printable tier row."""
        p95 = "-" if self.ttft_p95 is None else f"{self.ttft_p95:6.3f}"
        p99 = "-" if self.ttft_p99 is None else f"{self.ttft_p99:6.3f}"
        return (
            f"{self.scale:>5s} {self.tier:8s} "
            f"offered={self.offered:4d} served={self.served:4d} "
            f"shed={self.shed:4d} "
            f"ttft_p95={p95:>6s} ttft_p99={p99:>6s} "
            f"slo={self.slo_attainment:6.3f} "
            f"burn={self.budget_consumed:6.3f}"
        )

    def to_dict(self) -> dict:
        """JSON-ready payload row."""
        return {
            "scale": self.scale,
            "tier": self.tier,
            "offered": self.offered,
            "served": self.served,
            "shed": self.shed,
            "failed": self.failed,
            "shed_rate": self.shed_rate,
            "ttft_p50": self.ttft_p50,
            "ttft_p95": self.ttft_p95,
            "ttft_p99": self.ttft_p99,
            "slo_attainment": self.slo_attainment,
            "budget_consumed": self.budget_consumed,
        }


@dataclass(frozen=True)
class StormTenantRow:
    """One tenant's window outcome plus the noisy-neighbor comparison."""

    scale: str
    tenant: str
    tier: str
    offered: int
    served: int
    shed: int
    ttft_p95: float | None
    hit_rate_mixed: float | None
    hit_rate_solo: float | None
    cache_pollution: float | None
    """Solo-run hit rate minus mixed-run hit rate: how many cache hits
    this tenant loses to its neighbors' expert working sets (positive
    means the shared store got polluted)."""

    def format(self) -> str:
        """One printable tenant row."""

        def rate(value: float | None) -> str:
            return "   -  " if value is None else f"{value:6.3f}"

        return (
            f"{self.scale:>5s} {self.tenant:16s} ({self.tier:8s}) "
            f"offered={self.offered:4d} served={self.served:4d} "
            f"hit_mixed={rate(self.hit_rate_mixed)} "
            f"hit_solo={rate(self.hit_rate_solo)} "
            f"pollution={rate(self.cache_pollution)}"
        )

    def to_dict(self) -> dict:
        """JSON-ready payload row."""
        return {
            "scale": self.scale,
            "tenant": self.tenant,
            "tier": self.tier,
            "offered": self.offered,
            "served": self.served,
            "shed": self.shed,
            "ttft_p95": self.ttft_p95,
            "hit_rate_mixed": self.hit_rate_mixed,
            "hit_rate_solo": self.hit_rate_solo,
            "cache_pollution": self.cache_pollution,
        }


@dataclass(frozen=True)
class StormScaleResult:
    """Everything one scale produced: census plus window outcomes."""

    scale: str
    total_requests: int
    sim_requests: int
    deadline_seconds: float
    census: dict
    tiers: tuple[StormTierRow, ...]
    tenants: tuple[StormTenantRow, ...]

    def to_dict(self) -> dict:
        """JSON-ready payload for one scale."""
        return {
            "scale": self.scale,
            "total_requests": self.total_requests,
            "sim_requests": self.sim_requests,
            "deadline_seconds": self.deadline_seconds,
            "census": self.census,
            "tiers": [row.to_dict() for row in self.tiers],
            "tenants": [row.to_dict() for row in self.tenants],
        }


def storm_spec(
    replicas: int = 2,
    admission_rate: float = 4.0,
    admission_burst: int = 8,
) -> ClusterSpec:
    """The storm's cluster shape: shared store, premium admission bypass."""
    return ClusterSpec(
        replicas=replicas,
        router="least-outstanding",
        shared_store=True,
        resilience=ResilienceConfig(
            admission_rate=admission_rate,
            admission_burst=admission_burst,
            priority_bypass_level=PREMIUM_PRIORITY,
        ),
    )


def _sim_window(traffic: TrafficConfig, sim_requests: int):
    """The first ``sim_requests`` arrivals of the day (lazily drawn)."""
    return tuple(islice(stream_traffic(traffic), sim_requests))


def storm_results(
    config: ExperimentConfig | None = None,
    scales: Sequence[str] = DEFAULT_SCALES,
    sim_requests: int = 256,
    system: str = "fmoe",
    replicas: int = 2,
    admission_rate: float = 4.0,
    admission_burst: int = 8,
    deadline_multiplier: float = 3.0,
    objective: float = 0.9,
    jobs: int | None = 1,
    cache: WorldCache | None = None,
    validate: bool = False,
) -> list[StormScaleResult]:
    """Run the storm at every scale; one :class:`StormScaleResult` each.

    Per scale: stream the full day into a census, then replay the first
    ``sim_requests`` arrivals through the shared-store cluster three
    ways — a healthy reference (no resilience; its p95 latency times
    ``deadline_multiplier`` sets the SLO deadline, floored at 1s), the
    mixed multi-tenant run, and one solo run per tenant for the
    noisy-neighbor comparison.  All cells across all scales fan out
    through one :func:`run_cells` call, so ``--jobs`` parallelism never
    changes a byte of the rows.
    """
    base = config or ExperimentConfig()
    if sim_requests < 1:
        raise ConfigError("sim_requests must be >= 1")
    template = SimCell(
        config=base,
        system=system,
        cluster=storm_spec(replicas, admission_rate, admission_burst),
        validate=validate,
    )
    reference_spec = ClusterSpec(
        replicas=replicas,
        router="least-outstanding",
        shared_store=True,
    )

    plans = []
    keys: list[tuple] = []
    cells: list[SimCell] = []
    for text in scales:
        label, count = parse_scale(text)
        traffic = default_storm_traffic(count, seed=base.seed)
        census = traffic_census(stream_traffic(traffic))
        window = _sim_window(traffic, sim_requests)
        keys += [(label, "reference"), (label, "mixed")]
        cells += [
            replace(template, requests=window, cluster=reference_spec),
            replace(template, requests=window),
        ]
        for name in (t.name for t in traffic.tenants):
            keys.append((label, "solo", name))
            cells.append(
                replace(
                    template,
                    requests=tuple(r for r in window if r.tenant == name),
                )
            )
        plans.append((label, count, census, window))

    reports = dict(zip(keys, run_cells(cells, jobs=jobs, cache=cache)))

    results: list[StormScaleResult] = []
    for label, count, census, window in plans:
        reference = reports[label, "reference"]
        mixed = reports[label, "mixed"]
        if mixed.tenancy is None:
            raise ConfigError(
                "storm window produced no tenancy report; requests must "
                "carry tenant/tier tags"
            )
        deadline = calibrated_deadline(reference, deadline_multiplier)
        tiers_by_id = {r.request_id: r.tier for r in window}
        tracker = TieredSLOTracker(
            objective=objective, deadline_seconds=deadline
        )
        tracker.observe_outcomes(mixed.outcomes, tiers_by_id)

        tier_rows = []
        for tier_name, tier in sorted(mixed.tenancy.tiers.items()):
            partition = tracker.trackers.get(tier_name)
            tier_rows.append(
                StormTierRow(
                    scale=label,
                    tier=tier_name,
                    offered=tier.offered,
                    served=tier.served,
                    shed=tier.shed,
                    failed=tier.failed,
                    shed_rate=tier.shed_rate,
                    ttft_p50=tier.ttft_p50,
                    ttft_p95=tier.ttft_p95,
                    ttft_p99=tier.ttft_p99,
                    slo_attainment=(
                        partition.attainment() if partition else 1.0
                    ),
                    budget_consumed=(
                        partition.budget_consumed() if partition else 0.0
                    ),
                )
            )

        tenant_rows = []
        for name, tenant in sorted(mixed.tenancy.tenants.items()):
            solo = reports.get((label, "solo", name))
            solo_hit = None
            if solo is not None and solo.tenancy is not None:
                solo_tenant = solo.tenancy.tenants.get(name)
                if solo_tenant is not None:
                    solo_hit = solo_tenant.hit_rate
            pollution = None
            if solo_hit is not None and tenant.hit_rate is not None:
                pollution = solo_hit - tenant.hit_rate
            tenant_rows.append(
                StormTenantRow(
                    scale=label,
                    tenant=name,
                    tier=tenant.tier,
                    offered=tenant.offered,
                    served=tenant.served,
                    shed=tenant.shed,
                    ttft_p95=tenant.ttft_p95,
                    hit_rate_mixed=tenant.hit_rate,
                    hit_rate_solo=solo_hit,
                    cache_pollution=pollution,
                )
            )

        results.append(
            StormScaleResult(
                scale=label,
                total_requests=count,
                sim_requests=len(window),
                deadline_seconds=deadline,
                census=census.to_dict(),
                tiers=tuple(tier_rows),
                tenants=tuple(tenant_rows),
            )
        )
    return results
