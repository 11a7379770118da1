"""Multi-tenant traffic composition: the million-user arrival layer.

The Azure-shaped generator (:mod:`repro.workloads.azure`) emits one tenant
at a time.  Production MoE serving — the regime where fMoE's fine-grained
offloading, ExpertFlow's predictive routing, and ReMoE's reuse boosting
actually separate from baselines — sees *many* tenants at once, each with
its own corpus, diurnal rhythm, burstiness, and SLO tier.  This module
composes that traffic:

- :class:`TenantSpec` describes one tenant: dataset profile, request
  volume, mean rate, burst factor (interarrival CV), a piecewise-constant
  diurnal rate curve, and an SLO tier (``premium``/``standard``/``batch``)
  that maps onto :class:`~repro.serving.request.Request.priority`.
- :func:`stream_traffic` lazily heap-merges per-tenant generators into one
  arrival-ordered request stream.  Generation is blocked at a fixed
  internal granularity (:data:`BLOCK_REQUESTS`), so memory stays
  O(tenants x block) no matter how long the day is — a 1M-request day
  never materializes in RAM.  Each tenant yields ``(arrival_time,
  request_id, request)`` rows, so the merge orders by that key with plain
  tuple comparison (ids are unique across tenants, so a comparison never
  reaches the request itself).
- :func:`traffic_census` folds a stream into bounded-memory per-tenant /
  per-tier offered-load statistics.

Parity contract: every block draws its clusters, input lengths, output
lengths and then all of its routing seeds (one ``integers(2**31,
size=block)`` call, the same values and generator state as ``block``
scalar draws) from the dataset stream, and its gaps from the gap stream —
the order :func:`~repro.workloads.datasets.make_dataset` and
:func:`make_azure_trace` use for a whole trace.  So a single tenant with a
flat rate curve and at most one block of requests is byte-identical to
the legacy Azure path (pinned by ``tests/test_property_traffic.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from repro.errors import ConfigError
from repro.serving.request import Request
from repro.workloads.datasets import (
    DatasetProfile,
    _bounded_lognormal,
    get_dataset_profile,
)

#: SLO tiers, lowest priority first.  Index in this tuple == the
#: ``Request.priority`` value the tier maps to, so ``premium`` requests
#: clear any ``priority_bypass_level`` that ``batch`` requests do not.
TIER_NAMES = ("batch", "standard", "premium")

#: tier name -> Request.priority.
TIER_PRIORITY = {name: rank for rank, name in enumerate(TIER_NAMES)}

#: Priority at or above which the storm presets let requests bypass
#: admission control and the shed rung (the ``premium`` tier).
PREMIUM_PRIORITY = TIER_PRIORITY["premium"]

#: Fixed internal generation block.  Per-tenant draws happen in blocks of
#: this many requests regardless of how the consumer chunks the stream,
#: which is what makes the stream byte-identical across consumption
#: patterns (and keeps peak memory at O(tenants x BLOCK_REQUESTS)).
BLOCK_REQUESTS = 4096

#: Seconds in the simulated day the diurnal curves span.
DAY_SECONDS = 86400.0

#: Seed stride between tenants: tenant ``i`` draws from
#: ``config.seed + TENANT_SEED_STRIDE * i``, so tenant 0 of a
#: single-tenant config shares the legacy Azure generator's seed exactly.
TENANT_SEED_STRIDE = 101


def _mean_one(curve: tuple[float, ...]) -> tuple[float, ...]:
    """Normalize a rate curve to mean 1.0 (rate-preserving over a day)."""
    mean = sum(curve) / len(curve)
    return tuple(v / mean for v in curve)


#: Business-hours diurnal shape (24 hourly multipliers, mean 1.0):
#: quiet overnight, ramping through the morning, peaking mid-day.
DIURNAL_BUSINESS = _mean_one(
    (0.35, 0.30, 0.28, 0.28, 0.32, 0.45, 0.70, 1.05, 1.45, 1.70, 1.80, 1.75,
     1.65, 1.70, 1.80, 1.75, 1.60, 1.40, 1.15, 0.95, 0.75, 0.60, 0.50, 0.40)
)

#: Night-heavy batch shape (mean 1.0): the inverse rhythm — batch jobs
#: fill the troughs the interactive tiers leave behind.
DIURNAL_NIGHT = _mean_one(
    (1.70, 1.80, 1.80, 1.75, 1.60, 1.30, 0.95, 0.60, 0.40, 0.30, 0.28, 0.30,
     0.32, 0.30, 0.28, 0.30, 0.40, 0.55, 0.75, 1.00, 1.25, 1.45, 1.60, 1.70)
)

#: Flat curve: constant rate all day (the legacy Azure-trace shape).
FLAT_CURVE = (1.0,)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic contract."""

    name: str
    dataset: str = "lmsys-chat-1m"
    num_requests: int = 64
    mean_interarrival_seconds: float = 2.0
    burstiness_cv: float = 2.0
    """Burst factor: coefficient of variation of interarrival gaps."""

    tier: str = "standard"
    rate_curve: tuple[float, ...] = FLAT_CURVE
    """Piecewise-constant diurnal multipliers spanning one day (wraps)."""

    start_time: float = 0.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range knobs."""
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        if self.num_requests < 1:
            raise ConfigError(f"tenant {self.name}: num_requests must be >= 1")
        if self.mean_interarrival_seconds <= 0:
            raise ConfigError(
                f"tenant {self.name}: mean_interarrival_seconds must be > 0"
            )
        if self.burstiness_cv <= 0:
            raise ConfigError(f"tenant {self.name}: burstiness_cv must be > 0")
        if self.tier not in TIER_PRIORITY:
            raise ConfigError(
                f"tenant {self.name}: unknown tier {self.tier!r}; "
                f"known: {', '.join(TIER_NAMES)}"
            )
        if not self.rate_curve or any(m <= 0 for m in self.rate_curve):
            raise ConfigError(
                f"tenant {self.name}: rate_curve must be non-empty "
                "and strictly positive"
            )
        if self.start_time < 0:
            raise ConfigError(f"tenant {self.name}: start_time must be >= 0")
        get_dataset_profile(self.dataset).validate()

    @property
    def priority(self) -> int:
        """The :class:`Request.priority` this tenant's tier maps to."""
        return TIER_PRIORITY[self.tier]

    def rate_multiplier(self, time: float, day_seconds: float) -> float:
        """The diurnal rate multiplier in effect at virtual ``time``."""
        if len(self.rate_curve) == 1:
            return self.rate_curve[0]
        phase = (time % day_seconds) / day_seconds
        index = min(int(phase * len(self.rate_curve)), len(self.rate_curve) - 1)
        return self.rate_curve[index]


@dataclass(frozen=True)
class TrafficConfig:
    """A day of multi-tenant traffic: the tenants plus shared knobs."""

    tenants: tuple[TenantSpec, ...] = field(default_factory=tuple)
    seed: int = 0
    day_seconds: float = DAY_SECONDS

    def validate(self) -> None:
        """Raise :class:`ConfigError` on an inconsistent mix."""
        if not self.tenants:
            raise ConfigError("traffic config needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names in {names}")
        if self.day_seconds <= 0:
            raise ConfigError("day_seconds must be > 0")
        for tenant in self.tenants:
            tenant.validate()

    @property
    def total_requests(self) -> int:
        return sum(t.num_requests for t in self.tenants)

    def tenant_seed(self, index: int) -> int:
        """Arrival-RNG seed for tenant ``index`` (dataset RNG is seed+1)."""
        return self.seed + TENANT_SEED_STRIDE * index

    def tenant_start_id(self, index: int) -> int:
        """First request id of tenant ``index`` (disjoint id ranges)."""
        return sum(t.num_requests for t in self.tenants[:index])


def _tenant_rows(
    spec: TenantSpec, seed: int, start_id: int, day_seconds: float
) -> Iterator[tuple[float, int, Request]]:
    """One tenant's day as ``(arrival_time, request_id, request)`` rows."""
    spec.validate()
    profile: DatasetProfile = get_dataset_profile(spec.dataset)
    gap_rng = np.random.default_rng(seed)
    dataset_rng = np.random.default_rng(seed + 1)
    clusters = profile.effective_clusters()
    weights = profile.cluster_weights()
    shape = 1.0 / spec.burstiness_cv**2
    scale = spec.mean_interarrival_seconds / shape
    priority, name, tier = spec.priority, spec.name, spec.tier
    start_time = float(spec.start_time)
    # The rate-curve lookup of TenantSpec.rate_multiplier, inlined (a
    # one-phase curve always reads index 0, as its flat case does).
    curve = spec.rate_curve
    phases = len(curve)
    last_phase = phases - 1

    # Arrival arithmetic mirrors make_azure_trace bit for bit in the flat
    # case: a running sum over *all* gaps (including the first) with the
    # first warped gap subtracted from every arrival — the streaming
    # equivalent of ``cumsum(gaps); arrivals -= arrivals[0]``.
    running = 0.0
    base = 0.0
    arrival = start_time  # the previous arrival picks the rate phase
    request_id = start_id
    remaining = spec.num_requests
    while remaining:
        block = min(BLOCK_REQUESTS, remaining)
        # Same per-block call order as make_dataset: clusters, input
        # lengths, output lengths, then the block's routing seeds.
        block_clusters = dataset_rng.choice(clusters, size=block, p=weights)
        block_inputs = _bounded_lognormal(
            dataset_rng,
            profile.input_log_mean,
            profile.input_log_sigma,
            profile.input_min,
            profile.input_max,
            block,
        )
        block_outputs = _bounded_lognormal(
            dataset_rng,
            profile.output_log_mean,
            profile.output_log_sigma,
            profile.output_min,
            profile.output_max,
            block,
        )
        block_seeds = dataset_rng.integers(2**31, size=block)
        gaps = gap_rng.gamma(shape, scale, size=block).tolist()
        if request_id == start_id:
            # The first warped gap: every arrival is measured from it.
            base = gaps[0] / spec.rate_multiplier(start_time, day_seconds)
        for cluster, input_tokens, output_tokens, request_seed, gap in zip(
            block_clusters.tolist(),
            block_inputs.tolist(),
            block_outputs.tolist(),
            block_seeds.tolist(),
            gaps,
        ):
            phase = (arrival % day_seconds) / day_seconds
            index = int(phase * phases)
            running += gap / curve[index if index < phases else last_phase]
            arrival = start_time + (running - base)
            yield arrival, request_id, Request(
                request_id=request_id,
                cluster=cluster,
                input_tokens=input_tokens,
                output_tokens=output_tokens,
                arrival_time=arrival,
                seed=request_seed,
                priority=priority,
                tenant=name,
                tier=tier,
            )
            request_id += 1
        remaining -= block


_request_of = itemgetter(2)


def tenant_arrivals(
    spec: TenantSpec,
    *,
    seed: int = 0,
    start_id: int = 0,
    day_seconds: float = DAY_SECONDS,
) -> Iterator[Request]:
    """Lazily generate one tenant's day, sorted by arrival time.

    Draws happen in fixed blocks of :data:`BLOCK_REQUESTS` from one
    dataset stream seeded ``seed + 1`` and one gap stream seeded ``seed``.
    Each block draws its routing seeds in one call after its lengths,
    which is :func:`make_azure_trace`'s call sequence for a trace of at
    most one block, so a flat-curve tenant of that size is byte-identical
    to the legacy generator.  These are the requests of the
    ``(arrival_time, request_id, request)`` rows that
    :func:`stream_traffic` merges by that key.
    """
    return map(_request_of, _tenant_rows(spec, seed, start_id, day_seconds))


def _arrival_key(request: Request) -> tuple[float, int]:
    return (request.arrival_time, request.request_id)


def stream_traffic(config: TrafficConfig) -> Iterator[Request]:
    """Heap-merge every tenant's lazy stream into one arrival-ordered day.

    The merge compares ``(arrival_time, request_id)`` rows, so ties on
    arrival time break by request id.  Memory is O(tenants x
    BLOCK_REQUESTS): the merge holds one pending row per tenant and each
    generator holds one draw block.
    """
    config.validate()
    streams = [
        _tenant_rows(
            tenant,
            config.tenant_seed(index),
            config.tenant_start_id(index),
            config.day_seconds,
        )
        for index, tenant in enumerate(config.tenants)
    ]
    return map(_request_of, heapq.merge(*streams))


def materialize_traffic(config: TrafficConfig) -> list[Request]:
    """The same day fully materialized: per-tenant lists, then one sort.

    The independent reference the property suite checks the lazy merge
    against; only safe at sizes that fit in memory.
    """
    config.validate()
    requests: list[Request] = []
    for index, tenant in enumerate(config.tenants):
        requests.extend(
            tenant_arrivals(
                tenant,
                seed=config.tenant_seed(index),
                start_id=config.tenant_start_id(index),
                day_seconds=config.day_seconds,
            )
        )
    requests.sort(key=_arrival_key)
    return requests


def arrival_chunks(
    config: TrafficConfig, chunk_size: int
) -> Iterator[list[Request]]:
    """Re-batch the lazy stream into lists of at most ``chunk_size``.

    Chunking never changes the stream: concatenating the chunks is
    byte-identical to :func:`stream_traffic` for every chunk size
    (property-pinned), because generation granularity is fixed at
    :data:`BLOCK_REQUESTS` internally.
    """
    if chunk_size < 1:
        raise ConfigError("chunk_size must be >= 1")
    stream = stream_traffic(config)
    while chunk := list(islice(stream, chunk_size)):
        yield chunk


@dataclass
class TierCensus:
    """Bounded-memory offered-load statistics for one SLO tier."""

    offered: int = 0
    input_tokens: int = 0
    output_tokens: int = 0


@dataclass
class TrafficCensus:
    """Streaming summary of a traffic day (O(tenants) memory)."""

    total_requests: int = 0
    first_arrival: float = 0.0
    last_arrival: float = 0.0
    peak_minute_requests: int = 0
    per_tenant: dict[str, int] = field(default_factory=dict)
    per_tier: dict[str, TierCensus] = field(default_factory=dict)

    @property
    def span_seconds(self) -> float:
        return max(self.last_arrival - self.first_arrival, 0.0)

    @property
    def mean_rate(self) -> float:
        """Mean offered requests/second over the day."""
        if self.span_seconds <= 0:
            return 0.0
        return self.total_requests / self.span_seconds

    @property
    def peak_rate(self) -> float:
        """Peak offered requests/second over any one-minute bucket."""
        return self.peak_minute_requests / 60.0

    def to_dict(self) -> dict:
        """JSON-ready census payload (rates rounded for stable diffs)."""
        return {
            "total_requests": self.total_requests,
            "span_seconds": round(self.span_seconds, 3),
            "mean_rate": round(self.mean_rate, 6),
            "peak_rate": round(self.peak_rate, 6),
            "per_tenant": dict(sorted(self.per_tenant.items())),
            "per_tier": {
                tier: {
                    "offered": census.offered,
                    "input_tokens": census.input_tokens,
                    "output_tokens": census.output_tokens,
                }
                for tier, census in sorted(self.per_tier.items())
            },
        }


def traffic_census(arrivals: Iterable[Request]) -> TrafficCensus:
    """Fold an arrival stream into a census without materializing it."""
    total = 0
    first = last = 0.0
    peak = 0
    bucket = -1
    bucket_count = 0
    per_tenant: dict[str, int] = {}
    per_tier: dict[str, list[int]] = {}  # tier -> [offered, in, out]
    for request in arrivals:
        last = request.arrival_time
        if not total:
            first = last
            peak = 1  # the first arrival opens the first minute bucket
        total += 1
        tenant = request.tenant
        per_tenant[tenant] = per_tenant.get(tenant, 0) + 1
        tally = per_tier.get(request.tier)
        if tally is None:
            tally = per_tier[request.tier] = [0, 0, 0]
        tally[0] += 1
        tally[1] += request.input_tokens
        tally[2] += request.output_tokens
        minute = int(last // 60.0)
        if minute == bucket:
            bucket_count += 1
            if bucket_count > peak:
                peak = bucket_count
        else:
            bucket = minute
            bucket_count = 1
    return TrafficCensus(
        total_requests=total,
        first_arrival=first,
        last_arrival=last,
        peak_minute_requests=peak,
        per_tenant=per_tenant,
        per_tier={
            tier: TierCensus(*tally) for tier, tally in per_tier.items()
        },
    )


#: (name, dataset, share-of-total, tier, diurnal curve, burstiness) for
#: the default storm mix: an interactive premium tenant, a broad standard
#: tenant, and a night-heavy batch tenant on the other corpus.
_DEFAULT_TENANT_MIX = (
    ("acme-premium", "lmsys-chat-1m", 0.2, "premium", DIURNAL_BUSINESS, 2.0),
    ("globex-standard", "lmsys-chat-1m", 0.5, "standard", DIURNAL_BUSINESS, 2.5),
    ("initech-batch", "sharegpt", 0.3, "batch", DIURNAL_NIGHT, 1.5),
)


def default_storm_traffic(
    total_requests: int,
    seed: int = 0,
    day_seconds: float = DAY_SECONDS,
) -> TrafficConfig:
    """The canonical three-tenant storm day at ``total_requests`` volume.

    Tenant request counts scale proportionally with the total (largest
    remainders absorb rounding), and each tenant's mean rate is set so
    its day spans ``day_seconds``.
    """
    if total_requests < len(_DEFAULT_TENANT_MIX):
        raise ConfigError(
            f"total_requests must be >= {len(_DEFAULT_TENANT_MIX)} "
            "(one per tenant)"
        )
    counts = [
        max(int(total_requests * share), 1)
        for _, _, share, _, _, _ in _DEFAULT_TENANT_MIX
    ]
    counts[0] += total_requests - sum(counts)  # premium absorbs rounding
    tenants = tuple(
        TenantSpec(
            name=name,
            dataset=dataset,
            num_requests=counts[i],
            mean_interarrival_seconds=day_seconds / counts[i],
            burstiness_cv=cv,
            tier=tier,
            rate_curve=curve,
        )
        for i, (name, dataset, _, tier, curve, cv) in enumerate(
            _DEFAULT_TENANT_MIX
        )
    )
    return TrafficConfig(tenants=tenants, seed=seed, day_seconds=day_seconds)
