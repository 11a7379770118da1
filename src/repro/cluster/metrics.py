"""Cluster-level metrics: per-replica summaries plus fleet aggregates.

A :class:`ClusterReport` carries one :class:`ServingReport` per replica,
the fleet aggregate (the same :meth:`ServingReport.absorb` fold the
parallel runner uses), the routing/scaling counters, and the scale-event
timeline.  It quacks like a :class:`ServingReport` for the chaos matrix
(``percentile_latency``, ``hit_rate``, the fault counters), so existing
fault tooling accepts cluster cells unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.serving.metrics import ServingReport


@dataclass
class FleetReport:
    """Heterogeneous-fleet accounting (profiles, pricing, placement).

    Present on a :class:`ClusterReport` only when the spec carried
    replica profiles or a placement strategy; other runs keep the key
    out of the JSON form entirely.
    """

    profiles: list[dict] = field(default_factory=list)
    """Per-replica ``{replica_id, profile, dollars_per_hour, spot,
    preloaded}`` rows in spawn order (``preloaded`` counts plan experts
    actually made resident)."""

    placement: str | None = None
    placement_cost: float = 0.0
    placement_seed_cost: float = 0.0
    residency_sizes: list[int] = field(default_factory=list)
    unplaced_experts: int = 0
    dollars_per_hour: float = 0.0
    """Fleet price: sum of every spawned replica's $/hour."""


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler action on the cluster's virtual timeline."""

    time: float
    action: str
    """``up`` (replica added), ``drain`` (replica stops taking work), or
    ``retire`` (a drained replica leaves the fleet)."""

    replica_id: int
    outstanding: int
    """In-flight requests on the affected replica at event time (retire
    events must always record 0 — drain-before-kill)."""


@dataclass(frozen=True)
class ReplicaSummary:
    """Routing-level outcome of one replica's run."""

    replica_id: int
    assigned: int
    """Requests the router dispatched to this replica."""

    served: int
    shed_requests: int
    hit_rate: float
    mean_ttft_seconds: float
    p95_e2e_seconds: float
    device_failures: int
    draining: bool
    retired: bool
    spawned_at: float
    crashed: bool = False
    """Whether a scripted cluster fault killed this replica mid-run."""


@dataclass(frozen=True)
class DispatchRecord:
    """One request hand-off from the driver to a replica.

    ``seq`` is the driver's global event sequence number; breaker
    transitions carry the same counter, so the validate monitors can
    replay the exact interleaving of dispatches and state changes even
    when virtual timestamps tie.
    """

    seq: int
    time: float
    request_id: int
    replica_id: int
    kind: str
    """``primary`` (first placement), ``retry`` (re-dispatch after a shed
    or crash), or ``hedge`` (speculative second copy of a straggler)."""

    probe: bool = False
    """True when the target's breaker was half-open — this dispatch is
    the probe deciding whether the breaker closes or re-opens."""


@dataclass(frozen=True)
class BreakerTransition:
    """One circuit-breaker state change on a replica."""

    seq: int
    time: float
    replica_id: int
    state: str
    """``closed`` / ``open`` / ``half-open``."""


@dataclass(frozen=True)
class RecoveryEvent:
    """A crashed replica's replacement rejoining the fleet."""

    time: float
    crashed_replica: int
    new_replica: int
    restored_experts: int
    """Expert-map rows the replacement inherited from the shared store
    (0 for a fully cold rejoin)."""


@dataclass
class RequestOutcome:
    """Request-level truth of one routed request under resilience.

    Replica reports account for *machine work* (a crashed replica's
    partial serves, a cancelled hedge's compute all stay visible in the
    aggregate); outcomes account for what the *client* experienced.
    Every request presented to the cluster resolves to exactly one
    outcome — hedges and retries never add entries.
    """

    request_id: int
    arrival: float
    outcome: str = "pending"
    """``served`` / ``shed`` / ``failed`` (``pending`` only mid-run)."""

    replica_id: int | None = None
    """The replica whose serve defined this outcome (hedge winner)."""

    latency: float | None = None
    """Client-perceived end-to-end seconds from ``arrival`` (served only)."""

    ttft: float | None = None
    """Client-perceived first-token seconds from ``arrival`` — under
    hedging, the earlier of the two copies' first tokens."""

    attempts: int = 0
    """Primary + retry dispatches (hedges are tracked separately)."""

    hedged: bool = False
    hedge_won: bool = False
    rung: int = 0
    """Degradation-ladder rung in force when the request was admitted."""

    reason: str = ""
    """Why a request was shed/failed: ``admission`` (token bucket),
    ``ladder`` (shed rung), ``breaker`` (all candidates open),
    ``no-capacity`` (no live replica), ``replica`` (queue-delay shed,
    retries exhausted), or ``crash`` (lost in flight, not recovered)."""


def _percentile(values: list[float], q: float) -> float | None:
    """``q``-th percentile of ``values`` (None when empty)."""
    if not values:
        return None
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class TierReport:
    """Client-perceived outcome of one SLO tier's requests."""

    tier: str
    offered: int = 0
    """Requests presented to the cluster at this tier."""

    served: int = 0
    shed: int = 0
    failed: int = 0
    ttft_p50: float | None = None
    ttft_p95: float | None = None
    ttft_p99: float | None = None
    latency_p95: float | None = None
    slo_attainment: float | None = None
    """Fraction of *offered* requests served within the deadline of the
    :class:`~repro.obs.slo.SLOTracker` in the run's ``observers`` (None
    when no tracker observed the run)."""

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests shed (0 when nothing offered)."""
        if self.offered == 0:
            return 0.0
        return self.shed / self.offered


@dataclass
class TenantReport:
    """One tenant's slice of a multi-tenant cluster run."""

    tenant: str
    tier: str = ""
    offered: int = 0
    served: int = 0
    shed: int = 0
    failed: int = 0
    ttft_p95: float | None = None
    hit_rate: float | None = None
    """This tenant's expert-cache hit rate inside the mixed run — the
    basis of the noisy-neighbor pollution metric (compare against the
    tenant's solo-run hit rate under the same spec)."""


@dataclass
class TenancyReport:
    """Per-tier / per-tenant sections of a multi-tenant cluster run.

    Present on a :class:`ClusterReport` only when requests carried
    tenant/tier tags; untagged runs keep the ``tenancy`` key out of the
    JSON form entirely.
    """

    priority_aware: bool = False
    """Whether a ``priority_bypass_level`` protected high tiers — the
    tier-conservation monitor only enforces the premium-sheds-less
    ordering when this is set (tier-blind shedding has no ordering)."""

    tiers: dict[str, TierReport] = field(default_factory=dict)
    tenants: dict[str, TenantReport] = field(default_factory=dict)


@dataclass
class ResilienceReport:
    """Fleet-level resilience counters for one cluster run.

    Every run counts these on the one dispatch path, but the
    :class:`ClusterReport` carries them only when resilience features or
    cluster-scope faults were configured; otherwise ``resilience`` is
    ``None`` and the JSON form omits the section.
    """

    admitted: int = 0
    """Requests presented to the cluster (equals ``ClusterReport.routed``)."""

    shed_admission: int = 0
    shed_ladder: int = 0
    shed_breaker: int = 0
    shed_no_capacity: int = 0
    shed_replica: int = 0
    failed: int = 0
    """Requests lost in a crash and not recovered within budget."""

    primary_dispatches: int = 0
    retry_dispatches: int = 0
    retry_budget_limit: int = 0
    """Final retry ceiling, ``floor(retry_budget_fraction * routed)``."""

    retry_budget_exhausted: int = 0
    """Re-dispatches that were wanted but denied by the budget."""

    hedges: int = 0
    hedge_wins: int = 0
    hedges_cancelled: int = 0
    """Losing copies (one per hedge: either the straggling primary or
    the speculative secondary is always cancelled/wasted)."""

    hedge_budget_limit: int = 0
    hedge_wasted_seconds: float = 0.0
    """Service seconds spent on cancelled hedge copies."""

    breaker_opens: int = 0
    breaker_closes: int = 0
    breaker_probes: int = 0
    breaker_filtered_routes: int = 0
    """Routing decisions that excluded at least one open breaker."""

    crashes: int = 0
    restarts: int = 0
    lost_in_flight: int = 0
    """In-flight requests whose defining serve died with a replica."""

    link_delays: int = 0
    link_delay_seconds: float = 0.0
    rung_counts: dict[int, int] = field(default_factory=dict)
    """Admissions per degradation-ladder rung (0 = full service)."""

    @property
    def total_shed(self) -> int:
        """Requests the cluster shed across every mechanism."""
        return (
            self.shed_admission
            + self.shed_ladder
            + self.shed_breaker
            + self.shed_no_capacity
            + self.shed_replica
        )


@dataclass
class ClusterReport:
    """Aggregated outcome of one multi-replica cluster run."""

    system: str = ""
    router: str = ""
    replicas: list[ReplicaSummary] = field(default_factory=list)
    replica_reports: list[ServingReport] = field(default_factory=list)
    aggregate: ServingReport = field(default_factory=ServingReport)
    """Fleet-wide fold of the per-replica reports (replica-id order,
    ``distinct_sinks=True`` — each replica engine owns its own sink)."""

    scale_events: list[ScaleEvent] = field(default_factory=list)
    routed: int = 0
    affinity_routed: int = 0
    """Requests placed by a semantic-affinity store match (0 under the
    load-only routers)."""

    fallback_routed: int = 0
    """Affinity-router requests that fell back to least-outstanding."""

    routed_around_failures: int = 0
    """Routing decisions that excluded at least one replica because it
    had lost a device (router failover)."""

    scale_ups: int = 0
    scale_downs: int = 0
    final_replicas: int = 0
    """Replicas still accepting work when the run ended."""

    resilience: ResilienceReport | None = None
    """Resilience counters; ``None`` unless a :class:`ResilienceConfig` or
    cluster faults were set."""

    outcomes: list[RequestOutcome] = field(default_factory=list)
    """One request-level outcome per routed request (every run)."""

    dispatch_log: list[DispatchRecord] = field(default_factory=list)
    breaker_transitions: list[BreakerTransition] = field(default_factory=list)
    recovery_events: list[RecoveryEvent] = field(default_factory=list)

    slo_summary: dict | None = None
    """Burn-rate alerting summary (:meth:`repro.obs.slo.SLOTracker.to_dict`)
    when an SLO tracker rode the run; ``None`` otherwise, and the key is
    then omitted from the JSON form."""

    fleet: FleetReport | None = None
    """Heterogeneous-fleet accounting; ``None`` unless the spec set
    profiles or a placement — the JSON key is omitted then."""

    tenancy: TenancyReport | None = None
    """Per-tier / per-tenant accounting; ``None`` unless requests carried
    tenant or tier tags — the JSON key is omitted otherwise."""

    # ------------------------------------------------------------------ #
    # Fleet-level derived metrics
    # ------------------------------------------------------------------ #

    @property
    def affinity_hit_rate(self) -> float:
        """Fraction of routed requests placed by store affinity."""
        if self.routed == 0:
            return 0.0
        return self.affinity_routed / self.routed

    def load_imbalance(self) -> float:
        """Coefficient of variation of per-replica assignment counts.

        0 means perfectly even; higher means the router concentrated
        load.  Affinity routing *buys* locality with imbalance, so this
        is reported alongside hit rate rather than minimized.
        """
        counts = np.array([r.assigned for r in self.replicas], dtype=float)
        if counts.size == 0 or counts.mean() == 0:
            return 0.0
        return float(counts.std() / counts.mean())

    def slo_attainment(self, deadline_seconds: float) -> float:
        """Fraction of *admitted* requests finishing within the deadline.

        Denominator contract: every request presented to the cluster
        counts exactly once — shed and failed-over requests included, so
        dropping or losing work can never improve the attainment number.

        Request-level ``outcomes`` (recorded by every driver run) are the
        source of truth: a request attains the SLO iff its single
        outcome is ``served`` within the deadline.  This is what keeps
        the accounting consistent under retries and hedging, where the
        per-replica reports contain duplicate serves (cancelled hedge
        copies, crash-lost partials) that must not inflate either side
        of the ratio.  A report without outcomes (assembled by hand)
        falls back to the aggregate, where served + shed partitions the
        admitted set exactly.
        """
        if self.outcomes:
            good = sum(
                1
                for o in self.outcomes
                if o.outcome == "served"
                and o.latency is not None
                and o.latency <= deadline_seconds
            )
            return good / len(self.outcomes)
        served = self.aggregate.e2e_latencies()
        admitted = served.size + self.aggregate.shed_requests
        if admitted == 0:
            return 0.0
        return float((served <= deadline_seconds).sum()) / admitted

    def slo_per_dollar(self, deadline_seconds: float) -> float:
        """SLO attainment divided by the fleet's $/hour price.

        The heterogeneous-fleet figure of merit: a cheap slow fleet and
        an expensive fast fleet are only comparable once attainment is
        normalized by what the capacity costs.  Requires a
        :class:`FleetReport` (0.0 without one — an unpriced fleet has no
        dollar axis)."""
        if self.fleet is None or self.fleet.dollars_per_hour <= 0:
            return 0.0
        return (
            self.slo_attainment(deadline_seconds)
            / self.fleet.dollars_per_hour
        )

    # ------------------------------------------------------------------ #
    # ServingReport-compatible surface (chaos matrix, exporters)
    # ------------------------------------------------------------------ #

    @property
    def hit_rate(self) -> float:
        """Fleet-wide expert hit rate (aggregate report)."""
        return self.aggregate.hit_rate

    def percentile_latency(self, q: float) -> float:
        """Fleet-wide ``q``-th percentile end-to-end latency."""
        return self.aggregate.percentile_latency(q)

    def mean_ttft(self) -> float:
        """Fleet-wide mean Time-To-First-Token."""
        return self.aggregate.mean_ttft()

    @property
    def retries(self) -> int:
        """Fleet-wide transfer retries (aggregate report)."""
        return self.aggregate.retries

    @property
    def failovers(self) -> int:
        """Fleet-wide expert re-placements (aggregate report)."""
        return self.aggregate.failovers

    @property
    def device_failures(self) -> int:
        """Fleet-wide whole-GPU losses (aggregate report)."""
        return self.aggregate.device_failures

    @property
    def shed_requests(self) -> int:
        """Fleet-wide SLO-shed requests (aggregate report)."""
        return self.aggregate.shed_requests

    @property
    def degraded_tokens(self) -> int:
        """Fleet-wide degraded activations (aggregate report)."""
        return self.aggregate.degraded_tokens

    @property
    def recovery_seconds(self) -> float:
        """Fleet-wide failure-recovery seconds (aggregate report)."""
        return self.aggregate.recovery_seconds

    @property
    def slo_violations(self) -> int:
        """Fleet-wide SLO violations (aggregate report)."""
        return self.aggregate.slo_violations


def _resilience_to_dict(report: ClusterReport) -> dict:
    """The resilience section of a cluster report's JSON form."""
    res = report.resilience
    assert res is not None
    return {
        "admitted": res.admitted,
        "shed_admission": res.shed_admission,
        "shed_ladder": res.shed_ladder,
        "shed_breaker": res.shed_breaker,
        "shed_no_capacity": res.shed_no_capacity,
        "shed_replica": res.shed_replica,
        "total_shed": res.total_shed,
        "failed": res.failed,
        "primary_dispatches": res.primary_dispatches,
        "retry_dispatches": res.retry_dispatches,
        "retry_budget_limit": res.retry_budget_limit,
        "retry_budget_exhausted": res.retry_budget_exhausted,
        "hedges": res.hedges,
        "hedge_wins": res.hedge_wins,
        "hedges_cancelled": res.hedges_cancelled,
        "hedge_budget_limit": res.hedge_budget_limit,
        "hedge_wasted_seconds": res.hedge_wasted_seconds,
        "breaker_opens": res.breaker_opens,
        "breaker_closes": res.breaker_closes,
        "breaker_probes": res.breaker_probes,
        "breaker_filtered_routes": res.breaker_filtered_routes,
        "crashes": res.crashes,
        "restarts": res.restarts,
        "lost_in_flight": res.lost_in_flight,
        "link_delays": res.link_delays,
        "link_delay_seconds": res.link_delay_seconds,
        "rung_counts": {
            str(rung): count
            for rung, count in sorted(res.rung_counts.items())
        },
        "outcomes": [
            {
                "request_id": o.request_id,
                "arrival": o.arrival,
                "outcome": o.outcome,
                "replica_id": o.replica_id,
                "latency": o.latency,
                "ttft": o.ttft,
                "attempts": o.attempts,
                "hedged": o.hedged,
                "hedge_won": o.hedge_won,
                "rung": o.rung,
                "reason": o.reason,
            }
            for o in report.outcomes
        ],
        "dispatches": [
            {
                "seq": d.seq,
                "time": d.time,
                "request_id": d.request_id,
                "replica_id": d.replica_id,
                "kind": d.kind,
                "probe": d.probe,
            }
            for d in report.dispatch_log
        ],
        "breaker_transitions": [
            {
                "seq": t.seq,
                "time": t.time,
                "replica_id": t.replica_id,
                "state": t.state,
            }
            for t in report.breaker_transitions
        ],
        "recovery_events": [
            {
                "time": e.time,
                "crashed_replica": e.crashed_replica,
                "new_replica": e.new_replica,
                "restored_experts": e.restored_experts,
            }
            for e in report.recovery_events
        ],
    }


def _tenancy_to_dict(tenancy: TenancyReport) -> dict:
    """The tenancy section of a cluster report's JSON form."""
    return {
        "priority_aware": tenancy.priority_aware,
        "tiers": {
            name: {
                "offered": t.offered,
                "served": t.served,
                "shed": t.shed,
                "failed": t.failed,
                "shed_rate": t.shed_rate,
                "ttft_p50": t.ttft_p50,
                "ttft_p95": t.ttft_p95,
                "ttft_p99": t.ttft_p99,
                "latency_p95": t.latency_p95,
                "slo_attainment": t.slo_attainment,
            }
            for name, t in sorted(tenancy.tiers.items())
        },
        "tenants": {
            name: {
                "tier": t.tier,
                "offered": t.offered,
                "served": t.served,
                "shed": t.shed,
                "failed": t.failed,
                "ttft_p95": t.ttft_p95,
                "hit_rate": t.hit_rate,
            }
            for name, t in sorted(tenancy.tenants.items())
        },
    }


def cluster_report_to_dict(report: ClusterReport) -> dict:
    """A JSON-serializable summary of one cluster run.

    Resilience keys (the ``resilience`` section and per-replica
    ``crashed`` flags) appear only when a
    :class:`~repro.cluster.config.ResilienceConfig` or cluster faults
    were set; every run tracks outcomes, but this is the one place that
    decides whether they are emitted.
    """
    resilient = report.resilience is not None
    summary = {
        "system": report.system,
        "router": report.router,
        "routed": report.routed,
        "served": len(report.aggregate.requests),
        "affinity_routed": report.affinity_routed,
        "fallback_routed": report.fallback_routed,
        "affinity_hit_rate": report.affinity_hit_rate,
        "routed_around_failures": report.routed_around_failures,
        "scale_ups": report.scale_ups,
        "scale_downs": report.scale_downs,
        "final_replicas": report.final_replicas,
        "load_imbalance": report.load_imbalance(),
        "hit_rate": report.hit_rate,
        "mean_ttft_seconds": report.mean_ttft(),
        "p95_e2e_seconds": report.percentile_latency(95),
        "shed_requests": report.shed_requests,
        "device_failures": report.device_failures,
        "scale_events": [
            {
                "time": e.time,
                "action": e.action,
                "replica_id": e.replica_id,
                "outstanding": e.outstanding,
            }
            for e in report.scale_events
        ],
        "replicas": [
            {
                "replica_id": r.replica_id,
                "assigned": r.assigned,
                "served": r.served,
                "shed_requests": r.shed_requests,
                "hit_rate": r.hit_rate,
                "mean_ttft_seconds": r.mean_ttft_seconds,
                "p95_e2e_seconds": r.p95_e2e_seconds,
                "device_failures": r.device_failures,
                "draining": r.draining,
                "retired": r.retired,
                "spawned_at": r.spawned_at,
                **({"crashed": r.crashed} if resilient else {}),
            }
            for r in report.replicas
        ],
    }
    if resilient:
        summary["resilience"] = _resilience_to_dict(report)
    if report.slo_summary is not None:
        summary["slo"] = report.slo_summary
    if report.tenancy is not None:
        summary["tenancy"] = _tenancy_to_dict(report.tenancy)
    if report.fleet is not None:
        fleet = report.fleet
        summary["fleet"] = {
            "profiles": fleet.profiles,
            "placement": fleet.placement,
            "placement_cost": fleet.placement_cost,
            "placement_seed_cost": fleet.placement_seed_cost,
            "residency_sizes": fleet.residency_sizes,
            "unplaced_experts": fleet.unplaced_experts,
            "dollars_per_hour": fleet.dollars_per_hour,
        }
    return summary


def cluster_report_to_json(
    report: ClusterReport, path: str | Path | None = None
) -> str:
    """Serialize a cluster report to JSON; optionally write to ``path``."""
    text = json.dumps(cluster_report_to_dict(report), indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text
