"""Runtime invariant monitors for the serving simulator.

A :class:`MonitorSuite` subscribes to the engine like any other
observer: every event the engine emits is checked, in place, against the
simulation's own physics —

- **clock causality** — event timestamps never move backwards;
- **VRAM ledger** — per-device and total reservations stay within budget,
  and the byte ledger always equals ``residents × expert_bytes``;
- **cache coherence** — a served *hit* must be backed by a tracked expert
  whose transfer has actually landed (belief == residency);
- **conservation** — event counts reconcile with report counters, layer
  histograms sum to totals, and ``served + shed == admitted``;
- **kv-cache hygiene** — all sessions release their blocks by run end;
- **fault accounting** — failure/failover/eviction events reconcile with
  the pool's counters and the report.

Monitors only observe: they never advance the virtual clock or touch any
state, so an instrumented run produces byte-identical reports to an
uninstrumented one (asserted by the telemetry-neutrality tests).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ValidationError
from repro.serving.events import EngineObserver, Event, EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.metrics import ClusterReport
    from repro.serving.engine import ServingEngine
    from repro.serving.metrics import ServingReport

_EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant breach, stamped with the virtual time it surfaced."""

    monitor: str
    message: str
    time: float = 0.0

    def __str__(self) -> str:
        return f"[{self.monitor}] t={self.time:.6f}: {self.message}"


class InvariantMonitor:
    """One invariant; subclasses override the hooks they need."""

    name = "invariant"

    def bind(self, engine: "ServingEngine") -> None:
        """Snapshot whatever baseline state the checks compare against."""

    def on_event(
        self, engine: "ServingEngine", event: Event, suite: "MonitorSuite"
    ) -> None:
        """Check one emitted event (and the engine state behind it)."""

    def on_run_end(
        self,
        engine: "ServingEngine",
        report: "ServingReport",
        admitted: int | None,
        suite: "MonitorSuite",
    ) -> None:
        """Check end-of-run conservation against the finalized report."""


class ClockMonitor(InvariantMonitor):
    """Virtual time is monotone along the engine's event lane."""

    name = "clock"

    def bind(self, engine: "ServingEngine") -> None:
        self._last = -math.inf

    def on_event(self, engine, event, suite) -> None:
        if event.time < self._last - _EPS:
            suite.record(
                self.name,
                f"clock rewound: {event.kind.value} at {event.time:.9f} "
                f"after {self._last:.9f}",
                event.time,
            )
        self._last = max(self._last, event.time)


class BudgetMonitor(InvariantMonitor):
    """VRAM reservations never exceed the configured budgets."""

    name = "budget"

    def on_event(self, engine, event, suite) -> None:
        pool = engine.pool
        total = pool.used_bytes()
        if total > pool.cache_budget_bytes:
            suite.record(
                self.name,
                f"total reservations {total} exceed cache budget "
                f"{pool.cache_budget_bytes}",
                event.time,
            )
        for device in pool.devices:
            if device.used_bytes > device.budget_bytes:
                suite.record(
                    self.name,
                    f"GPU {device.index} ledger {device.used_bytes} "
                    f"exceeds its budget {device.budget_bytes}",
                    event.time,
                )
            if device.used_bytes < 0:
                suite.record(
                    self.name,
                    f"GPU {device.index} ledger went negative "
                    f"({device.used_bytes})",
                    event.time,
                )


class CoherenceMonitor(InvariantMonitor):
    """Pool residency, the byte ledger, and served hits agree.

    Hits are checked against the raw tracking tables (``arrival_time``),
    not the policy-facing ``is_ready`` — a broken readiness predicate must
    not be able to vouch for itself.
    """

    name = "coherence"

    def on_event(self, engine, event, suite) -> None:
        pool = engine.pool
        expert_bytes = pool.model.expert_bytes
        union: set = set()
        for device in pool.devices:
            union |= device.resident
            expected = len(device.resident) * expert_bytes
            if device.used_bytes != expected:
                suite.record(
                    self.name,
                    f"GPU {device.index} ledger {device.used_bytes} != "
                    f"{len(device.resident)} residents x {expert_bytes}",
                    event.time,
                )
        tracked = pool.resident_experts()
        if union != tracked:
            drift = union.symmetric_difference(tracked)
            suite.record(
                self.name,
                f"residency drift: {len(drift)} experts tracked on one "
                f"side only (e.g. {sorted(drift)[:3]})",
                event.time,
            )
        if event.kind is EventKind.EXPERT_HIT and event.expert is not None:
            arrival = pool.arrival_time(event.expert)
            if arrival is None:
                suite.record(
                    self.name,
                    f"hit on untracked expert {event.expert}",
                    event.time,
                )
            elif arrival > event.time + _EPS:
                suite.record(
                    self.name,
                    f"hit on in-flight expert {event.expert} "
                    f"(arrives {arrival:.9f} > now {event.time:.9f})",
                    event.time,
                )


class ConservationMonitor(InvariantMonitor):
    """Requests, tokens, and hit/miss counts are conserved."""

    name = "conservation"

    def bind(self, engine: "ServingEngine") -> None:
        self._starts = 0
        self._ends = 0
        self._hits = 0
        self._misses = 0
        self._shed = 0

    def on_event(self, engine, event, suite) -> None:
        if event.kind is EventKind.ITERATION_START:
            self._starts += 1
        elif event.kind is EventKind.ITERATION_END:
            self._ends += 1
        elif event.kind is EventKind.EXPERT_HIT:
            self._hits += 1
        elif event.kind is EventKind.EXPERT_MISS:
            self._misses += 1
        elif event.kind is EventKind.REQUEST_SHED:
            self._shed += 1
        if self._starts - self._ends not in (0, 1):
            suite.record(
                self.name,
                f"unbalanced iterations: {self._starts} starts vs "
                f"{self._ends} ends",
                event.time,
            )

    def on_run_end(self, engine, report, admitted, suite) -> None:
        checks = [
            (self._starts == self._ends == report.iterations,
             f"iteration events ({self._starts}/{self._ends}) disagree "
             f"with report.iterations ({report.iterations})"),
            (self._hits == report.hits,
             f"{self._hits} hit events vs report.hits {report.hits}"),
            (self._misses == report.misses,
             f"{self._misses} miss events vs report.misses "
             f"{report.misses}"),
            (sum(report.layer_hits.values()) == report.hits,
             "layer_hits histogram does not sum to report.hits"),
            (sum(report.layer_misses.values()) == report.misses,
             "layer_misses histogram does not sum to report.misses"),
            (self._shed == report.shed_requests == len(
                report.shed_request_ids),
             f"{self._shed} shed events vs counter "
             f"{report.shed_requests} vs "
             f"{len(report.shed_request_ids)} recorded ids"),
        ]
        if admitted is not None:
            checks.append(
                (len(report.requests) + report.shed_requests == admitted,
                 f"served ({len(report.requests)}) + shed "
                 f"({report.shed_requests}) != admitted ({admitted})"))
        attributed = sum(r.hits for r in report.requests)
        checks.append(
            (math.isclose(attributed, report.hits,
                          rel_tol=1e-6, abs_tol=1e-6),
             f"per-request attributed hits {attributed} drifted from "
             f"report.hits {report.hits}"))
        for ok, message in checks:
            if not ok:
                suite.record(self.name, message, engine.now)


class KVMonitor(InvariantMonitor):
    """Every admitted session releases its kv-cache blocks by run end."""

    name = "kvcache"

    def on_run_end(self, engine, report, admitted, suite) -> None:
        leaked = engine.kv_tracker.current_bytes()
        if leaked != 0:
            suite.record(
                self.name,
                f"{leaked} kv-cache bytes still held at run end",
                engine.now,
            )
        if report.peak_kv_bytes != engine.kv_tracker.peak_bytes:
            suite.record(
                self.name,
                f"report peak_kv_bytes {report.peak_kv_bytes} != tracker "
                f"peak {engine.kv_tracker.peak_bytes}",
                engine.now,
            )


class FaultAccountingMonitor(InvariantMonitor):
    """Failure/failover/eviction events reconcile with pool counters."""

    name = "faults"

    def bind(self, engine: "ServingEngine") -> None:
        self._stats0 = dataclasses.replace(engine.pool.stats)
        self._failures = 0
        self._failovers = 0
        self._evictions = 0
        self._ondemand = 0
        self._prefetch_issued = 0

    def on_event(self, engine, event, suite) -> None:
        if event.kind is EventKind.DEVICE_FAILURE:
            self._failures += 1
        elif event.kind is EventKind.FAILOVER:
            self._failovers += int(event.detail or 0)
        elif event.kind is EventKind.EVICTION:
            self._evictions += 1
        elif event.kind is EventKind.ONDEMAND_LOAD:
            self._ondemand += 1
        elif event.kind is EventKind.PREFETCH_ISSUED:
            self._prefetch_issued += int(event.detail or 0)

    def on_run_end(self, engine, report, admitted, suite) -> None:
        stats, stats0 = engine.pool.stats, self._stats0
        checks = [
            (self._failures == report.device_failures ==
             stats.devices_lost - stats0.devices_lost,
             f"{self._failures} failure events vs report "
             f"{report.device_failures} vs pool "
             f"{stats.devices_lost - stats0.devices_lost}"),
            (self._failovers == report.failovers ==
             stats.failovers - stats0.failovers,
             f"{self._failovers} failover events vs report "
             f"{report.failovers} vs pool "
             f"{stats.failovers - stats0.failovers}"),
            (self._evictions == stats.evictions - stats0.evictions,
             f"{self._evictions} eviction events vs pool "
             f"{stats.evictions - stats0.evictions}"),
            (self._ondemand == stats.ondemand_loads - stats0.ondemand_loads,
             f"{self._ondemand} on-demand events vs pool "
             f"{stats.ondemand_loads - stats0.ondemand_loads}"),
            # Failover re-placements go through pool.prefetch but are
            # announced as FAILOVER events, so they count toward the
            # event-side total.
            (self._prefetch_issued + self._failovers ==
             stats.prefetch_issued - stats0.prefetch_issued,
             f"{self._prefetch_issued} prefetch-issued + "
             f"{self._failovers} failover events vs pool "
             f"{stats.prefetch_issued - stats0.prefetch_issued}"),
        ]
        for ok, message in checks:
            if not ok:
                suite.record(self.name, message, engine.now)


def default_monitors() -> list[InvariantMonitor]:
    """One fresh instance of every invariant monitor."""
    return [
        ClockMonitor(),
        BudgetMonitor(),
        CoherenceMonitor(),
        ConservationMonitor(),
        KVMonitor(),
        FaultAccountingMonitor(),
    ]


class MonitorSuite(EngineObserver):
    """All invariant monitors behind one engine subscriber.

    :meth:`bind` subscribes it beside whatever observers the engine
    already has, in any order; their streams and drop accounting are
    untouched.
    """

    def __init__(
        self,
        monitors: list[InvariantMonitor] | None = None,
        max_recorded: int = 50,
    ) -> None:
        self.monitors = (
            list(monitors) if monitors is not None else default_monitors()
        )
        self.max_recorded = max_recorded
        self.violations: list[Violation] = []
        self.total_violations = 0
        self.engine: "ServingEngine | None" = None
        self._finished = False

    # ------------------------------------------------------------------ #
    # Attachment and the event hook
    # ------------------------------------------------------------------ #

    def bind(self, engine: "ServingEngine") -> "MonitorSuite":
        """Subscribe to ``engine``'s event stream."""
        self.engine = engine
        for monitor in self.monitors:
            monitor.bind(engine)
        engine.subscribe(self)
        return self

    def emit(self, event: Event) -> None:
        """Fan one event out to every monitor's checks."""
        assert self.engine is not None, "suite not bound to an engine"
        for monitor in self.monitors:
            monitor.on_event(self.engine, event, self)

    # ------------------------------------------------------------------ #
    # Violations
    # ------------------------------------------------------------------ #

    def record(self, monitor: str, message: str, time: float) -> None:
        """Register one violation (kept up to ``max_recorded``)."""
        self.total_violations += 1
        if len(self.violations) < self.max_recorded:
            self.violations.append(Violation(monitor, message, time))

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def finish(
        self, report: "ServingReport", admitted: int | None = None
    ) -> list[Violation]:
        """Run end-of-run conservation checks; returns all violations.

        ``admitted`` is the number of requests handed to the engine
        (served + shed must partition it).  Safe to call once per run.
        """
        assert self.engine is not None, "suite not bound to an engine"
        if not self._finished:
            self._finished = True
            for monitor in self.monitors:
                monitor.on_run_end(self.engine, report, admitted, self)
        return self.violations

    def summary(self, limit: int = 5) -> str:
        """Human-readable digest of the recorded violations."""
        if self.ok:
            return "no invariant violations"
        lines = [str(v) for v in self.violations[:limit]]
        hidden = self.total_violations - len(lines)
        if hidden > 0:
            lines.append(f"... and {hidden} more")
        return "\n".join(lines)

    def raise_if_violated(self, context: str = "") -> None:
        """Raise :class:`ValidationError` when any invariant broke."""
        if self.ok:
            return
        prefix = f"{context}: " if context else ""
        raise ValidationError(
            f"{prefix}{self.total_violations} invariant violation(s)\n"
            + self.summary()
        )


def check_cluster_report(report: "ClusterReport") -> list[Violation]:
    """Cluster-level conservation checks over a finalized report.

    The per-replica invariants are covered by each replica's own
    :class:`MonitorSuite`; this reconciles the fleet bookkeeping — routing
    counters, scale events, and the aggregate fold.  Resilient runs (any
    run with a :class:`~repro.cluster.metrics.ResilienceReport`) swap the
    legacy served+shed==routed identity for outcome-level conservation
    and add the resilience invariants: the retry budget is never
    exceeded, no request is ever dispatched to a replica whose breaker
    was open, hedge winners are counted exactly once, and requests are
    conserved across crash/recovery.
    """
    violations: list[Violation] = []

    def record(message: str) -> None:
        violations.append(Violation("cluster", message))

    assigned = sum(r.assigned for r in report.replicas)
    aggregate = report.aggregate
    if report.resilience is None:
        if assigned != report.routed:
            record(
                f"replica assignments ({assigned}) != routed "
                f"({report.routed})"
            )
        served = len(aggregate.requests)
        if served + aggregate.shed_requests != report.routed:
            record(
                f"served ({served}) + shed ({aggregate.shed_requests}) "
                f"!= routed ({report.routed})"
            )
    else:
        violations.extend(_check_resilience(report, assigned))
    if report.affinity_routed + report.fallback_routed > report.routed:
        record("affinity + fallback routing counters exceed routed total")
    for event in report.scale_events:
        if event.action == "retire" and event.outstanding != 0:
            record(
                f"replica {event.replica_id} retired with "
                f"{event.outstanding} in-flight request(s)"
            )
    ups = sum(1 for e in report.scale_events if e.action == "up")
    downs = sum(1 for e in report.scale_events if e.action == "drain")
    if ups != report.scale_ups or downs != report.scale_downs:
        record(
            f"scale events ({ups} up / {downs} drain) disagree with "
            f"counters ({report.scale_ups} / {report.scale_downs})"
        )
    for field_name in ("hits", "misses", "iterations", "shed_requests"):
        total = getattr(aggregate, field_name)
        folded = sum(getattr(r, field_name) for r in report.replica_reports)
        if total != folded:
            record(
                f"aggregate.{field_name} ({total}) != sum over replicas "
                f"({folded})"
            )
    for summary, replica_report in zip(
        report.replicas, report.replica_reports
    ):
        if summary.served != len(replica_report.requests):
            record(
                f"replica {summary.replica_id} summary served "
                f"({summary.served}) != report ({len(replica_report.requests)})"
            )
        if summary.served + summary.shed_requests != summary.assigned:
            record(
                f"replica {summary.replica_id}: served ({summary.served}) "
                f"+ shed ({summary.shed_requests}) != assigned "
                f"({summary.assigned})"
            )
    if report.tenancy is not None:
        violations.extend(_check_tenancy(report))
    return violations


def _check_tenancy(report: "ClusterReport") -> list[Violation]:
    """Tier-conservation invariants over a multi-tenant run's report.

    Two families: **conservation** — every tier's (and tenant's) offered
    requests resolve exactly once (admitted/served + shed + failed ==
    offered), and the per-tenant fold reproduces the per-tier fold — and
    **priority ordering** — under priority-aware shedding (a configured
    ``priority_bypass_level``), the premium tier's shed rate can never
    exceed the batch tier's: the bypass gate protects high priorities,
    so any inversion means the driver shed the wrong tier first (exactly
    what the ``priority-inversion`` mutant does).
    """
    violations: list[Violation] = []
    tenancy = report.tenancy

    def record(message: str) -> None:
        violations.append(Violation("tenancy", message))

    total_offered = 0
    for name, tier in sorted(tenancy.tiers.items()):
        total_offered += tier.offered
        if tier.served + tier.shed + tier.failed != tier.offered:
            record(
                f"tier {name}: served ({tier.served}) + shed "
                f"({tier.shed}) + failed ({tier.failed}) != offered "
                f"({tier.offered})"
            )
    if total_offered > report.routed:
        record(
            f"tier offered totals ({total_offered}) exceed routed "
            f"({report.routed})"
        )
    folded: dict[str, list[int]] = {}
    for name, tenant in sorted(tenancy.tenants.items()):
        if tenant.served + tenant.shed + tenant.failed != tenant.offered:
            record(
                f"tenant {name}: served ({tenant.served}) + shed "
                f"({tenant.shed}) + failed ({tenant.failed}) != offered "
                f"({tenant.offered})"
            )
        sums = folded.setdefault(tenant.tier, [0, 0, 0, 0])
        sums[0] += tenant.offered
        sums[1] += tenant.served
        sums[2] += tenant.shed
        sums[3] += tenant.failed
    for name, (offered, served, shed, failed) in sorted(folded.items()):
        tier = tenancy.tiers.get(name)
        if tier is None:
            record(f"tenants report tier {name} absent from tier sections")
            continue
        if (tier.offered, tier.served, tier.shed, tier.failed) != (
            offered,
            served,
            shed,
            failed,
        ):
            record(
                f"tier {name} counters "
                f"({tier.offered}/{tier.served}/{tier.shed}/{tier.failed}) "
                f"disagree with tenant fold "
                f"({offered}/{served}/{shed}/{failed})"
            )
    if tenancy.priority_aware:
        premium = tenancy.tiers.get("premium")
        batch = tenancy.tiers.get("batch")
        if (
            premium is not None
            and batch is not None
            and premium.offered > 0
            and batch.offered > 0
            and premium.shed_rate > batch.shed_rate + _EPS
        ):
            record(
                f"priority inversion: premium shed rate "
                f"({premium.shed_rate:.4f}) exceeds batch shed rate "
                f"({batch.shed_rate:.4f}) under priority-aware shedding"
            )
    return violations


def _check_resilience(
    report: "ClusterReport", assigned: int
) -> list[Violation]:
    """Resilience invariants over a tracked cluster run's logs.

    The dispatch log and breaker-transition journal share one global
    sequence counter, so the exact interleaving of placements and state
    changes replays from the finalized report alone — "never dispatched
    to an open breaker" is checked against the journal, not trusted from
    a counter.
    """
    violations: list[Violation] = []
    res = report.resilience

    def record(message: str) -> None:
        violations.append(Violation("resilience", message))

    # Request conservation: every routed request resolves exactly once.
    outcomes = report.outcomes
    if len(outcomes) != report.routed or res.admitted != report.routed:
        record(
            f"outcomes ({len(outcomes)}) / admitted ({res.admitted}) "
            f"disagree with routed ({report.routed})"
        )
    ids = [o.request_id for o in outcomes]
    if len(set(ids)) != len(ids):
        record("duplicate request ids in outcomes")
    pending = sum(1 for o in outcomes if o.outcome == "pending")
    if pending:
        record(f"{pending} outcome(s) still pending at run end")
    served = sum(1 for o in outcomes if o.outcome == "served")
    shed = sum(1 for o in outcomes if o.outcome == "shed")
    failed = sum(1 for o in outcomes if o.outcome == "failed")
    if served + shed + failed != report.routed:
        record(
            f"outcomes served ({served}) + shed ({shed}) + failed "
            f"({failed}) != routed ({report.routed})"
        )
    if shed != res.total_shed or failed != res.failed:
        record(
            f"outcome shed/failed ({shed}/{failed}) disagree with "
            f"counters ({res.total_shed}/{res.failed})"
        )
    # Every dispatch lands on a replica (assigned) exactly once.
    if assigned != len(report.dispatch_log):
        record(
            f"replica assignments ({assigned}) != dispatch log entries "
            f"({len(report.dispatch_log)})"
        )
    # Retry budget is a hard ceiling.
    retries = sum(1 for d in report.dispatch_log if d.kind == "retry")
    if retries != res.retry_dispatches:
        record(
            f"dispatch-log retries ({retries}) != counter "
            f"({res.retry_dispatches})"
        )
    if res.retry_dispatches > res.retry_budget_limit:
        record(
            f"retry dispatches ({res.retry_dispatches}) exceed budget "
            f"({res.retry_budget_limit})"
        )
    # Hedge accounting: winners counted once, fizzles never dispatch.
    hedges = sum(1 for d in report.dispatch_log if d.kind == "hedge")
    if hedges > res.hedges:
        record(
            f"dispatch-log hedges ({hedges}) exceed hedge counter "
            f"({res.hedges})"
        )
    if res.hedges > res.hedge_budget_limit:
        record(
            f"hedges ({res.hedges}) exceed budget "
            f"({res.hedge_budget_limit})"
        )
    hedge_won = sum(1 for o in outcomes if o.hedge_won)
    if hedge_won != res.hedge_wins or res.hedge_wins > res.hedges:
        record(
            f"hedge wins ({res.hedge_wins}, {hedge_won} on outcomes) "
            f"inconsistent with hedges ({res.hedges})"
        )
    if res.hedges_cancelled > res.hedges:
        record(
            f"hedges cancelled ({res.hedges_cancelled}) exceed hedges "
            f"({res.hedges})"
        )
    # Breaker journal replay: no dispatch to an open breaker; probes
    # only against half-open breakers.
    last_state: dict[int, str] = {}
    events: list[tuple[int, str, object]] = [
        (t.seq, "transition", t) for t in report.breaker_transitions
    ] + [(d.seq, "dispatch", d) for d in report.dispatch_log]
    events.sort(key=lambda item: item[0])
    for _, kind, item in events:
        if kind == "transition":
            last_state[item.replica_id] = item.state
            continue
        state = last_state.get(item.replica_id, "closed")
        if state == "open":
            record(
                f"request {item.request_id} dispatched to replica "
                f"{item.replica_id} while its breaker was open "
                f"(seq {item.seq})"
            )
        if item.probe and state != "half-open":
            record(
                f"probe dispatch {item.seq} to replica "
                f"{item.replica_id} whose breaker was {state}"
            )
    # Crash/recovery conservation.
    crash_events = sum(
        1 for e in report.scale_events if e.action == "crash"
    )
    crashed = sum(1 for r in report.replicas if r.crashed)
    if not (res.crashes == crash_events == crashed):
        record(
            f"crash counter ({res.crashes}), crash events "
            f"({crash_events}), and crashed replicas ({crashed}) disagree"
        )
    restart_events = sum(
        1 for e in report.scale_events if e.action == "restart"
    )
    if not (res.restarts == restart_events == len(report.recovery_events)):
        record(
            f"restart counter ({res.restarts}), restart events "
            f"({restart_events}), and recovery events "
            f"({len(report.recovery_events)}) disagree"
        )
    for outcome in outcomes:
        if outcome.outcome == "served" and (
            outcome.latency is None or outcome.ttft is None
        ):
            record(
                f"served outcome {outcome.request_id} missing "
                "latency/ttft"
            )
    return violations
