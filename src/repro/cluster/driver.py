"""The cluster driver: N engine replicas on one shared virtual clock.

Requests are dispatched in arrival order (stable for ties).  At each
dispatch point the driver retires fully drained replicas, lets the
autoscaler act, filters the routable fleet (draining replicas and — under
failover — replicas that lost a device are excluded), asks the router for
a placement, and hands the request to the chosen replica's engine, which
serves it to completion on its private timeline.  Eager per-request
serving is sound because replicas are independent machines: a routing
decision at time ``t`` only observes work dispatched at earlier arrival
times, never the future of any replica.

A 1-replica round-robin cluster is *the same machine* as a bare
:func:`~repro.experiments.common.run_system` run: engines come from the
shared :func:`~repro.experiments.common.make_engine` path and requests
flow through the same :meth:`ServingEngine.serve_step` /
:meth:`ServingEngine.finalize_report` calls, so the reports are
byte-identical.

Every request takes one path — admission, then one or more dispatch
attempts, then a finish — and resolves to exactly one
:class:`~repro.cluster.metrics.RequestOutcome`.  Resilience features and
cluster faults only add gates and attempts along that path; whether the
``resilience`` section appears in the report is a format choice made
once, at construction.

Tracing, metrics, journeys, fleet sampling and SLO accounting subscribe
as observers (:class:`~repro.cluster.observer.ClusterObserver`): the
driver calls each one wherever it journals a record, and knows nothing
of what they do with it.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import Iterable, Sequence

from repro.cluster.autoscaler import Autoscaler
from repro.cluster.config import ClusterSpec
from repro.cluster.metrics import (
    BreakerTransition,
    ClusterReport,
    DispatchRecord,
    FleetReport,
    RecoveryEvent,
    ReplicaSummary,
    RequestOutcome,
    ResilienceReport,
    ScaleEvent,
    TenancyReport,
    TenantReport,
    TierReport,
    _percentile,
)
from repro.cluster.observer import ClusterObserver
from repro.cluster.placement import build_plan, demand_from_traces
from repro.cluster.replica import Replica
from repro.cluster.resilience import (
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    RUNG_FULL,
    RUNG_NO_PREFETCH,
    RUNG_SHED,
    RUNG_SUBSTITUTE,
    CircuitBreaker,
    DegradationLadder,
    DispatchBudget,
    TokenBucket,
)
from repro.cluster.router import make_router, pick_secondary
from repro.core.policy import FMoEPolicy
from repro.core.store import ExpertMapStore
from repro.errors import ConfigError, ValidationError
from repro.experiments.common import World, make_engine
from repro.serving.faults import (
    ClusterFaultConfig,
    FaultConfig,
    FaultSchedule,
    ReplicaCrash,
    SLOConfig,
)
from repro.serving.metrics import ServingReport
from repro.serving.request import Request

#: Outcome ``reason`` → :class:`ResilienceReport` shed-counter field.
_SHED_FIELDS = {
    "admission": "shed_admission",
    "ladder": "shed_ladder",
    "breaker": "shed_breaker",
    "no-capacity": "shed_no_capacity",
    "replica": "shed_replica",
}


class ClusterDriver:
    """Drives one multi-replica serving simulation to completion.

    ``observers`` are bound before the first replica spawns, so every
    observer sees every replica and every request of the run.
    """

    def __init__(
        self,
        world: World,
        system: str,
        spec: ClusterSpec,
        fault_config: FaultConfig | None = None,
        cluster_faults: ClusterFaultConfig | None = None,
        slo: SLOConfig | None = None,
        cache_budget_bytes: int | None = None,
        validate: bool = False,
        observers: Sequence[ClusterObserver] = (),
    ) -> None:
        if spec.shared_store and system != "fmoe":
            raise ConfigError(
                "shared_store only applies to the fmoe system "
                f"(got {system!r})"
            )
        self.world = world
        self.system = system
        self.spec = spec
        self.fault_config = fault_config
        self.slo = slo
        self.cache_budget_bytes = cache_budget_bytes
        self.validate = validate
        self._observers = tuple(observers)
        self._suites: dict[int, object] = {}
        self.violations: list = []
        self._base_budget = (
            cache_budget_bytes
            if cache_budget_bytes is not None
            else world.config.resolve_budget(world.model_config)
        )
        self.plan = None
        demand_map = None
        if spec.placement is not None or spec.router == "cost-aware":
            demands = demand_from_traces(world.warm_traces)
            demand_map = {
                d.cluster: tuple(e for e, _ in d.weights) for d in demands
            }
            if spec.placement is not None:
                self.plan = build_plan(
                    spec.placement,
                    world.warm_traces,
                    spec,
                    world.model_config,
                    world.config.hardware,
                    self._base_budget,
                )
        self.router = make_router(spec.router, demand=demand_map)
        self.autoscaler = (
            Autoscaler(spec.autoscaler) if spec.autoscaler else None
        )
        self._shared_store = self._build_shared_store() if (
            spec.shared_store
        ) else None
        self._store_warmed = False
        # The probe model peeks request embeddings for affinity routing
        # without touching any replica: a session's embedding is a pure
        # function of (model seed, cluster, request seed).
        self._probe = world.fresh_model()
        self.replicas: list[Replica] = []
        self.report = ClusterReport(system=system, router=spec.router)
        if spec.profiles is not None or spec.placement is not None:
            fleet = FleetReport(placement=spec.placement)
            if self.plan is not None:
                fleet.placement_cost = self.plan.cost
                fleet.placement_seed_cost = self.plan.seed_cost
                fleet.residency_sizes = [
                    len(r) for r in self.plan.residency
                ]
                fleet.unplaced_experts = len(self.plan.unplaced)
            self.report.fleet = fleet
        self.resilience = spec.resilience
        self.cluster_faults = (
            cluster_faults
            if cluster_faults is not None and not cluster_faults.is_zero
            else None
        )
        # Every run counts outcomes; the resilience section is reported
        # only when resilience features or cluster faults are configured.
        self._res = ResilienceReport()
        if self.resilience is not None or self.cluster_faults is not None:
            self.report.resilience = self._res
        self._seq = 0
        self._fault_order = 0
        self._outcomes: dict[int, RequestOutcome] = {}
        self._tenancy_tags: dict[int, tuple[str, str]] = {}
        self._breakers: dict[int, CircuitBreaker] = {}
        self._fault_events: list[tuple[float, int, str, ReplicaCrash]] = []
        self._bucket: TokenBucket | None = None
        self._ladder: DegradationLadder | None = None
        self._retry_budget = DispatchBudget(0.0)
        self._hedge_budget = DispatchBudget(0.0)
        self._max_attempts = 1
        cfg = self.resilience
        if cfg is not None:
            self._max_attempts = cfg.max_attempts_per_request
            if cfg.admission_rate is not None:
                self._bucket = TokenBucket(
                    cfg.admission_rate, cfg.admission_burst
                )
            self._ladder = DegradationLadder(cfg)
            self._retry_budget = DispatchBudget(cfg.retry_budget_fraction)
            self._hedge_budget = DispatchBudget(cfg.hedge_budget_fraction)
        if self.cluster_faults is not None:
            for crash in self.cluster_faults.expand_crashes():
                self._fault_order += 1
                heapq.heappush(
                    self._fault_events,
                    (crash.time, self._fault_order, "crash", crash),
                )
        for _ in range(spec.replicas):
            self._spawn(now=0.0)

    # ------------------------------------------------------------------ #
    # Fleet construction
    # ------------------------------------------------------------------ #

    def _build_shared_store(self) -> ExpertMapStore:
        """One expert-map store every fMoE replica learns into."""
        config = self.world.config
        model = self.world.model_config
        return ExpertMapStore(
            capacity=config.store_capacity,
            num_layers=model.num_layers,
            num_experts=model.experts_per_layer,
            embedding_dim=model.embedding_dim,
            prefetch_distance=min(
                config.prefetch_distance, model.num_layers
            ),
        )

    def _replica_faults(self, replica_id: int) -> FaultSchedule | None:
        """This replica's fault oracle (None when it lives fault-free)."""
        if self.fault_config is None:
            return None
        if (
            self.spec.fault_replica is not None
            and self.spec.fault_replica != replica_id
        ):
            return None
        return FaultSchedule(self.fault_config)

    def _spawn(self, now: float, restart: bool = False) -> Replica:
        """Add one replica to the fleet at virtual time ``now``.

        ``restart`` spawns a crash replacement: it rejoins *cold* — no
        warm traces, an empty expert pool — and must measurably re-warm,
        except that under ``restart_warm_from_store`` a shared-store
        fleet lets the replacement search the surviving store (the store
        outlives its replicas, which is the point of sharing it).
        """
        replica_id = len(self.replicas)
        policy = None
        use_shared = self._shared_store is not None
        if restart:
            cfg = self.resilience
            use_shared = use_shared and (
                cfg is not None and cfg.restart_warm_from_store
            )
        if use_shared:
            config = self.world.config
            policy = FMoEPolicy(
                prefetch_distance=config.prefetch_distance,
                store_capacity=config.store_capacity,
                shared_store=self._shared_store,
            )
        # Each replica derives its latency constants and expert cache
        # from its profile; a default profile returns the base hardware
        # and leaves the budget untouched.
        profile = self.spec.profile_for(replica_id)
        hardware = profile.apply(self.world.config.hardware)
        budget = self.cache_budget_bytes
        if profile.vram_scale != 1.0:
            # Same floor resolve_budget applies: the pool needs at least
            # one expert per GPU even on a VRAM-scaled-down replica.
            budget = max(
                profile.scale_budget(self._base_budget),
                hardware.num_gpus * self.world.model_config.expert_bytes,
            )
        engine = make_engine(
            self.world,
            self.system,
            policy=policy,
            cache_budget_bytes=budget,
            faults=self._replica_faults(replica_id),
            slo=self.slo,
            hardware=hardware,
        )
        if self.spec.warm and not restart:
            if self._shared_store is None:
                engine.policy.warm(self.world.warm_traces)
            elif not self._store_warmed:
                # A shared store is warmed exactly once: every replica
                # searches the same rows, so re-warming would duplicate.
                engine.policy.warm(self.world.warm_traces)
                self._store_warmed = True
        preloaded = 0
        if self.plan is not None:
            residency = self.plan.residency[
                replica_id % len(self.plan.residency)
            ]
            preloaded = len(engine.pool.preload_fit(residency))
        replica = Replica(replica_id, engine, profile=profile)
        replica.spawned_at = now
        self.replicas.append(replica)
        if self.report.fleet is not None:
            self.report.fleet.profiles.append(
                {
                    "replica_id": replica_id,
                    "profile": profile.name,
                    "dollars_per_hour": profile.dollars_per_hour,
                    "spot": profile.spot,
                    "preloaded": preloaded,
                }
            )
            self.report.fleet.dollars_per_hour += profile.dollars_per_hour
        cfg = self.resilience
        if cfg is not None and cfg.breakers_enabled:
            self._breakers[replica_id] = CircuitBreaker(
                cfg,
                on_transition=lambda time, state, rid=replica_id: (
                    self._note_breaker(rid, time, state)
                ),
            )
        for observer in self._observers:
            observer.on_spawn(self, replica)
        if self.validate:
            # Every replica engine gets its own invariant monitors; the
            # suite subscribes beside any observer's subscribers and only
            # observes, so a validated run stays byte-identical.
            from repro.validate.monitors import MonitorSuite

            self._suites[replica_id] = MonitorSuite().bind(engine)
        return replica

    # ------------------------------------------------------------------ #
    # Fleet state
    # ------------------------------------------------------------------ #

    def accepting(self) -> list[Replica]:
        """Replicas currently accepting new work."""
        return [
            r for r in self.replicas if not r.draining and not r.retired
        ]

    def _routable(self, now: float) -> list[Replica]:
        """The accepting fleet minus device-loss casualties (failover).

        When every accepting replica has lost a device the filter is
        waived — degraded service beats no service.
        """
        accepting = self.accepting()
        if not self.spec.route_around_device_loss:
            return accepting
        healthy = [r for r in accepting if r.device_failures == 0]
        if healthy and len(healthy) < len(accepting):
            self.report.routed_around_failures += 1
            for observer in self._observers:
                observer.on_failover_route(now)
        return healthy or accepting

    def _record_scale(
        self, now: float, action: str, replica: Replica, outstanding: int
    ) -> None:
        """Journal one scale event."""
        event = ScaleEvent(now, action, replica.replica_id, outstanding)
        self.report.scale_events.append(event)
        for observer in self._observers:
            observer.on_scale(self, event)

    def _retire_drained(self, now: float) -> None:
        """Retire draining replicas whose last in-flight work finished."""
        for replica in self.replicas:
            if replica.draining and not replica.retired:
                outstanding = replica.outstanding_requests(now)
                if outstanding == 0:
                    replica.retired = True
                    self._record_scale(now, "retire", replica, outstanding)

    def _autoscale(self, now: float) -> None:
        """Apply at most one autoscaler action at this dispatch point."""
        if self.autoscaler is None:
            return
        accepting = self.accepting()
        action = self.autoscaler.decide(now, accepting)
        if action == "up":
            replica = self._spawn(now)
            self.report.scale_ups += 1
            self._record_scale(now, "up", replica, 0)
        elif action == "down":
            target = self.autoscaler.pick_drain_target(now, accepting)
            target.draining = True
            self.report.scale_downs += 1
            self._record_scale(
                now, "drain", target, target.outstanding_requests(now)
            )

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def _embedding(self, request: Request):
        """Peek the request's embedding via the probe model."""
        session = self._probe.start_session(
            request.cluster,
            request.input_tokens,
            request.output_tokens,
            seed=request.seed,
        )
        return session.embedding

    def _note_breaker(self, replica_id: int, time: float, state: str) -> None:
        """Journal one breaker transition (sequenced against dispatches)."""
        res = self._res
        if state == BREAKER_OPEN:
            res.breaker_opens += 1
        elif state == "closed":
            res.breaker_closes += 1
        self._seq += 1
        transition = BreakerTransition(self._seq, time, replica_id, state)
        self.report.breaker_transitions.append(transition)
        for observer in self._observers:
            observer.on_breaker(transition)

    def _apply_due_cluster_faults(self, now: float) -> None:
        """Apply scripted crashes/restarts whose virtual time has come."""
        while self._fault_events and self._fault_events[0][0] <= now:
            time, _, kind, crash = heapq.heappop(self._fault_events)
            if kind == "crash":
                self._apply_crash(time, crash)
            else:
                self._apply_restart(time, crash)

    def _apply_crash(self, time: float, crash: ReplicaCrash) -> None:
        """Kill one replica; failover re-dispatch of its in-flight work."""
        if crash.replica >= len(self.replicas):
            return
        replica = self.replicas[crash.replica]
        if replica.retired or replica.crashed:
            return
        lost = replica.crash(time)
        res = self._res
        res.crashes += 1
        self._record_scale(time, "crash", replica, len(lost))
        if crash.restart_delay is not None:
            self._fault_order += 1
            heapq.heappush(
                self._fault_events,
                (
                    time + crash.restart_delay,
                    self._fault_order,
                    "restart",
                    crash,
                ),
            )
        for request in lost:
            outcome = self._outcomes.get(request.request_id)
            if (
                outcome is None
                or outcome.outcome != "served"
                or outcome.replica_id != replica.replica_id
            ):
                # The defining serve lives elsewhere (hedge winner on a
                # surviving replica) — losing this copy costs nothing.
                continue
            res.lost_in_flight += 1
            self._redispatch_lost(request, time, replica.replica_id)

    def _apply_restart(self, time: float, crash: ReplicaCrash) -> None:
        """A crashed replica's replacement rejoins the fleet (cold)."""
        res = self._res
        replica = self._spawn(time, restart=True)
        res.restarts += 1
        restored = 0
        if replica.expert_map_store() is self._shared_store and (
            self._shared_store is not None
        ):
            restored = len(self._shared_store)
        self.report.recovery_events.append(
            RecoveryEvent(time, crash.replica, replica.replica_id, restored)
        )
        self._record_scale(time, "restart", replica, 0)

    def _redispatch_lost(
        self, request: Request, crash_time: float, crashed_id: int
    ) -> None:
        """Fail a crash-lost request over, retry budget permitting."""
        res = self._res
        outcome = self._outcomes[request.request_id]
        outcome.outcome = "pending"
        outcome.replica_id = None
        outcome.latency = None
        outcome.ttft = None
        if outcome.attempts < self._max_attempts and (
            self._retry_budget.try_take(self.report.routed)
        ):
            retry = replace(request, arrival_time=crash_time)
            self._serve(
                retry,
                outcome,
                self._current_rung(crash_time),
                excluded={crashed_id},
            )
            return
        if outcome.attempts < self._max_attempts:
            res.retry_budget_exhausted += 1
        outcome.outcome = "failed"
        outcome.reason = "crash"
        outcome.replica_id = crashed_id
        res.failed += 1
        for observer in self._observers:
            observer.on_failed(outcome)

    def _current_rung(self, now: float, peek: bool = False) -> int:
        """The degradation-ladder rung for the fleet's health at ``now``.

        ``peek`` reads breakers with :meth:`CircuitBreaker.peek`, so
        observing the fleet never promotes a breaker (promotions journal
        a sequenced transition, which would change the report).
        """
        if self._ladder is None:
            return RUNG_FULL
        accepting = self.accepting()
        if not accepting:
            return RUNG_FULL
        depth = sum(
            r.outstanding_requests(now) for r in accepting
        ) / len(accepting)
        open_fraction = 0.0
        if self._breakers:
            state = CircuitBreaker.peek if peek else CircuitBreaker.state
            open_count = sum(
                1
                for r in accepting
                if state(self._breakers[r.replica_id], now) == BREAKER_OPEN
            )
            open_fraction = open_count / len(accepting)
        return self._ladder.rung(depth, open_fraction)

    def breaker_for(self, replica_id: int) -> CircuitBreaker | None:
        """This replica's circuit breaker (None when breakers are off)."""
        return self._breakers.get(replica_id)

    def peek_rung(self, now: float) -> int:
        """:meth:`_current_rung` as a pure read (for samplers)."""
        return self._current_rung(now, peek=True)

    def _shed_outcome(self, outcome: RequestOutcome, reason: str) -> None:
        """Resolve one outcome as shed and bump the matching counter."""
        res = self._res
        outcome.outcome = "shed"
        outcome.reason = reason
        field = _SHED_FIELDS[reason]
        setattr(res, field, getattr(res, field) + 1)
        for observer in self._observers:
            observer.on_shed(outcome)

    def _admission_bypass(self, request: Request) -> bool:
        """Whether this request's priority clears the shed/admission gates.

        The priority-scheduling seam: premium tiers map to priorities at
        or above ``priority_bypass_level``, so under overload the ladder
        and token bucket shed batch traffic first.  (The
        ``priority-inversion`` validation mutant overrides exactly this
        decision; the tier-conservation monitor must catch it.)
        """
        cfg = self.resilience
        return (
            cfg is not None
            and cfg.priority_bypass_level is not None
            and request.priority >= cfg.priority_bypass_level
        )

    def _dispatch(self, request: Request) -> None:
        """Admit one request at its arrival time, then serve or shed it."""
        for observer in self._observers:
            observer.on_arrival(self, request)
        now = request.arrival_time
        self._apply_due_cluster_faults(now)
        self._retire_drained(now)
        self._autoscale(now)
        res = self._res
        self.report.routed += 1
        res.admitted += 1
        rung = self._current_rung(now)
        res.rung_counts[rung] = res.rung_counts.get(rung, 0) + 1
        outcome = RequestOutcome(request_id=request.request_id, arrival=now)
        outcome.rung = rung
        self._outcomes[request.request_id] = outcome
        if request.tenant or request.tier:
            self._tenancy_tags[request.request_id] = (
                request.tenant,
                request.tier,
            )
        for observer in self._observers:
            observer.on_admit(request, outcome)
        bypass = self._admission_bypass(request)
        if rung >= RUNG_SHED and not bypass:
            self._shed_outcome(outcome, "ladder")
            return
        if (
            self._bucket is not None
            and not bypass
            and not self._bucket.allow(now)
        ):
            self._shed_outcome(outcome, "admission")
            return
        self._serve(request, outcome, rung)

    def _serve(
        self,
        request: Request,
        outcome: RequestOutcome,
        rung: int,
        excluded: set[int] | None = None,
    ) -> None:
        """Attempt chain for one admitted request (primary + retries)."""
        res = self._res
        excluded = set(excluded) if excluded else set()
        while True:
            kind = "primary" if outcome.attempts == 0 else "retry"
            status, replica, served = self._attempt(
                request, excluded, kind, rung
            )
            if status in ("shed", "served"):
                outcome.attempts += 1
            if status == "no-candidates":
                self._shed_outcome(outcome, "no-capacity")
                return
            if status == "breaker":
                self._shed_outcome(outcome, "breaker")
                return
            if status == "shed":
                excluded.add(replica.replica_id)
                if outcome.attempts < self._max_attempts and (
                    self._retry_budget.try_take(self.report.routed)
                ):
                    continue
                if outcome.attempts < self._max_attempts:
                    res.retry_budget_exhausted += 1
                self._shed_outcome(outcome, "replica")
                return
            self._finish_served(request, outcome, replica, served, rung)
            return

    def _attempt(
        self,
        request: Request,
        excluded: set[int],
        kind: str,
        rung: int,
    ):
        """One dispatch: pick a replica, serve, feed its breaker.

        Returns ``(status, replica, metrics)`` where status is
        ``served`` / ``shed`` (replica queue-delay shed) /
        ``breaker`` (every live candidate's breaker is open) /
        ``no-candidates`` (no live replica, or no hedge target).
        """
        now = request.arrival_time
        cfg = self.resilience
        res = self._res
        candidates = self._routable(now)
        if not candidates:
            return ("no-candidates", None, None)
        if self._breakers:
            closed = [
                r
                for r in candidates
                if self._breakers[r.replica_id].state(now) != BREAKER_OPEN
            ]
            if len(closed) < len(candidates):
                res.breaker_filtered_routes += 1
            if not closed:
                # Never dispatch to an open breaker — shedding here is
                # what keeps the invariant absolute.
                return ("breaker", None, None)
            candidates = closed
        if kind == "hedge":
            primary_id = next(iter(excluded))
            replica = pick_secondary(candidates, primary_id, now)
            if replica is None:
                return ("no-candidates", None, None)
            reason, score = "hedge", 0.0
        else:
            pool = [
                r for r in candidates if r.replica_id not in excluded
            ] or candidates
            decision = self.router.select(
                request, self._embedding(request), pool, now
            )
            replica, reason, score = (
                decision.replica,
                decision.reason,
                decision.score,
            )
        breaker = self._breakers.get(replica.replica_id)
        probe = breaker is not None and breaker.state(now) == BREAKER_HALF_OPEN
        if probe:
            res.breaker_probes += 1
        if kind == "primary":
            res.primary_dispatches += 1
            if reason == "affinity":
                self.report.affinity_routed += 1
            elif reason == "fallback":
                self.report.fallback_routed += 1
        elif kind == "retry":
            res.retry_dispatches += 1
        self._seq += 1
        record = DispatchRecord(
            self._seq, now, request.request_id, replica.replica_id, kind, probe
        )
        self.report.dispatch_log.append(record)
        for observer in self._observers:
            observer.on_dispatch(record, reason, score)
        serve_request = request
        if self.cluster_faults is not None:
            link = self.cluster_faults.link_delay(replica.replica_id, now)
            if link > 0.0:
                res.link_delays += 1
                res.link_delay_seconds += link
                serve_request = replace(
                    request, arrival_time=request.arrival_time + link
                )
        engine = replica.engine
        saved = (engine.prefetch_enabled, engine.force_substitution)
        if rung >= RUNG_NO_PREFETCH:
            engine.prefetch_enabled = False
        if rung >= RUNG_SUBSTITUTE:
            engine.force_substitution = True
        try:
            finish = replica.serve(serve_request)
        finally:
            engine.prefetch_enabled, engine.force_substitution = saved
        if finish is None:
            for observer in self._observers:
                observer.on_attempt_end("shed", None)
            if breaker is not None:
                breaker.record(False, now)
            return ("shed", replica, None)
        served = replica.report.requests[-1]
        for observer in self._observers:
            observer.on_attempt_end("served", served)
        success = True
        if (
            cfg is not None
            and cfg.breaker_failure_ttft_seconds is not None
            and served.ttft > cfg.breaker_failure_ttft_seconds
        ):
            success = False
        if breaker is not None:
            breaker.record(success, now)
        return ("served", replica, served)

    def _finish_served(
        self,
        request: Request,
        outcome: RequestOutcome,
        replica: Replica,
        served,
        rung: int,
    ) -> None:
        """Resolve a served outcome; hedge the primary if it straggles."""
        cfg = self.resilience
        res = self._res
        winner = served
        winner_replica = replica
        first_token_at = served.arrival_time + served.ttft
        if (
            cfg is not None
            and cfg.hedge_after_seconds is not None
            and first_token_at - request.arrival_time
            > cfg.hedge_after_seconds
            and self._hedge_budget.try_take(self.report.routed)
        ):
            res.hedges += 1
            outcome.hedged = True
            hedge_time = request.arrival_time + cfg.hedge_after_seconds
            hedge_request = replace(request, arrival_time=hedge_time)
            h_status, h_replica, h_served = self._attempt(
                hedge_request, {replica.replica_id}, "hedge", rung
            )
            hedge_result = None
            if h_status == "served":
                # First response wins; the loser is cancelled and its
                # service time is accounted as wasted hedge work.
                res.hedges_cancelled += 1
                first_token_at = min(
                    first_token_at,
                    h_served.arrival_time + h_served.ttft,
                )
                if h_served.finish_time < served.finish_time:
                    res.hedge_wins += 1
                    outcome.hedge_won = True
                    res.hedge_wasted_seconds += (
                        served.finish_time - served.start_time
                    )
                    winner, winner_replica = h_served, h_replica
                    hedge_result = "win"
                else:
                    res.hedge_wasted_seconds += (
                        h_served.finish_time - h_served.start_time
                    )
                    hedge_result = "loss"
            elif h_status == "shed":
                # The speculative copy was shed on arrival: the hedge
                # is cancelled without ever producing a token.
                res.hedges_cancelled += 1
                hedge_result = "cancelled"
            if hedge_result is not None:
                for observer in self._observers:
                    observer.on_hedge(
                        request.request_id,
                        hedge_result,
                        replica.replica_id,
                        served,
                        h_replica.replica_id,
                        h_served,
                    )
        outcome.outcome = "served"
        outcome.replica_id = winner_replica.replica_id
        outcome.latency = winner.finish_time - outcome.arrival
        outcome.ttft = first_token_at - outcome.arrival
        for observer in self._observers:
            observer.on_served(outcome, winner)
        if self.autoscaler is not None:
            self.autoscaler.observe_ttft(
                outcome.ttft, winner_replica.replica_id
            )

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #

    def run(self, requests: Sequence[Request]) -> ClusterReport:
        """Serve ``requests`` across the fleet; returns the full report."""
        # Stable sort: ties keep the caller's order, so a 1-replica
        # cluster serves exactly the sequence a bare engine run would.
        return self._run_ordered(
            sorted(requests, key=lambda r: r.arrival_time)
        )

    def run_stream(self, arrivals: Iterable[Request]) -> ClusterReport:
        """Serve an arrival-ordered stream without materializing it.

        The big-traffic entry point: the lazy heap-merged streams from
        :mod:`repro.workloads.traffic` are already sorted, so requests
        dispatch straight off the iterator and the driver never holds
        the full day in memory.  Raises :class:`ConfigError` on an
        out-of-order arrival (callers own the sort contract here).
        """
        return self._run_ordered(arrivals, streaming=True)

    def _run_ordered(
        self, ordered: Iterable[Request], streaming: bool = False
    ) -> ClusterReport:
        last_arrival: float | None = None
        for request in ordered:
            if last_arrival is None:
                for observer in self._observers:
                    observer.on_run_start(self, request.arrival_time)
            elif streaming and request.arrival_time < last_arrival:
                raise ConfigError(
                    "run_stream requires non-decreasing arrival times; "
                    f"request {request.request_id} arrived at "
                    f"{request.arrival_time} after {last_arrival}"
                )
            last_arrival = request.arrival_time
            self._dispatch(request)
        # Scripted faults landing after the last arrival still happen:
        # drain them so late crashes retract in-flight work and scheduled
        # restarts are journaled.
        self._apply_due_cluster_faults(float("inf"))
        if last_arrival is not None:
            # The fleet is idle once the last arrival is in and every
            # replica has drained.
            quiesce = max([last_arrival] + [r.engine.now for r in self.replicas])
            for observer in self._observers:
                observer.on_quiesce(self, quiesce)
        self._finalize()
        for observer in self._observers:
            observer.on_finish(self, self.report)
        if self.validate:
            self._check_invariants()
        return self.report

    def _build_tenancy(self) -> None:
        """Fold tagged outcomes into per-tier / per-tenant sections.

        Built whenever requests carry tenant or tier tags
        (client-perceived outcomes are the source of truth for tier
        accounting); untagged runs leave ``report.tenancy`` as None.
        """
        if not self._tenancy_tags:
            return
        cfg = self.resilience
        tenancy = TenancyReport(
            priority_aware=(
                cfg is not None and cfg.priority_bypass_level is not None
            )
        )
        tier_ttfts: dict[str, list[float]] = {}
        tier_latencies: dict[str, list[float]] = {}
        tenant_ttfts: dict[str, list[float]] = {}
        for outcome in self.report.outcomes:
            tags = self._tenancy_tags.get(outcome.request_id)
            if tags is None:
                continue
            tenant_name, tier_name = tags
            tier = tenancy.tiers.setdefault(
                tier_name, TierReport(tier=tier_name)
            )
            tenant = tenancy.tenants.setdefault(
                tenant_name,
                TenantReport(tenant=tenant_name, tier=tier_name),
            )
            tier.offered += 1
            tenant.offered += 1
            if outcome.outcome == "served":
                tier.served += 1
                tenant.served += 1
                if outcome.ttft is not None:
                    tier_ttfts.setdefault(tier_name, []).append(
                        outcome.ttft
                    )
                    tenant_ttfts.setdefault(tenant_name, []).append(
                        outcome.ttft
                    )
                if outcome.latency is not None:
                    tier_latencies.setdefault(tier_name, []).append(
                        outcome.latency
                    )
            elif outcome.outcome == "shed":
                tier.shed += 1
                tenant.shed += 1
            elif outcome.outcome == "failed":
                tier.failed += 1
                tenant.failed += 1
        for name, tier in tenancy.tiers.items():
            ttfts = tier_ttfts.get(name, [])
            tier.ttft_p50 = _percentile(ttfts, 50)
            tier.ttft_p95 = _percentile(ttfts, 95)
            tier.ttft_p99 = _percentile(ttfts, 99)
            tier.latency_p95 = _percentile(tier_latencies.get(name, []), 95)
        # Per-tenant cache behavior comes from the machine-work metrics:
        # every serve a tenant's requests triggered (retries, hedges,
        # crash partials included) counts toward its hit rate, which is
        # exactly the shared-store footprint the noisy-neighbor metric
        # compares against a solo run.
        tenant_hits: dict[str, int] = {}
        tenant_misses: dict[str, int] = {}
        for served in self.report.aggregate.requests:
            tags = self._tenancy_tags.get(served.request_id)
            if tags is None:
                continue
            tenant_name = tags[0]
            tenant_hits[tenant_name] = (
                tenant_hits.get(tenant_name, 0) + served.hits
            )
            tenant_misses[tenant_name] = (
                tenant_misses.get(tenant_name, 0) + served.misses
            )
        for name, tenant in tenancy.tenants.items():
            tenant.ttft_p95 = _percentile(tenant_ttfts.get(name, []), 95)
            total = tenant_hits.get(name, 0) + tenant_misses.get(name, 0)
            if total > 0:
                tenant.hit_rate = tenant_hits.get(name, 0) / total
        self.report.tenancy = tenancy

    def _finalize(self) -> None:
        """Fold per-replica reports into summaries and the aggregate."""
        aggregate = ServingReport()
        names = set()
        for replica in self.replicas:
            replica_report = replica.finalize()
            if replica_report.policy_name:
                names.add(replica_report.policy_name)
            self.report.replica_reports.append(replica_report)
            self.report.replicas.append(
                ReplicaSummary(
                    replica_id=replica.replica_id,
                    assigned=replica.assigned,
                    served=len(replica_report.requests),
                    shed_requests=replica_report.shed_requests,
                    hit_rate=replica_report.hit_rate,
                    mean_ttft_seconds=replica_report.mean_ttft(),
                    p95_e2e_seconds=replica_report.percentile_latency(95),
                    device_failures=replica_report.device_failures,
                    draining=replica.draining,
                    retired=replica.retired,
                    spawned_at=replica.spawned_at,
                    crashed=replica.crashed,
                )
            )
            # Each replica engine owns its own sink: drop counters add.
            aggregate.absorb(replica_report, distinct_sinks=True)
        if len(names) == 1:
            aggregate.policy_name = names.pop()
        self.report.aggregate = aggregate
        self.report.final_replicas = len(self.accepting())
        res = self._res
        res.retry_budget_limit = self._retry_budget.limit(self.report.routed)
        res.hedge_budget_limit = self._hedge_budget.limit(self.report.routed)
        self.report.outcomes = list(self._outcomes.values())
        self._build_tenancy()

    def _check_invariants(self) -> None:
        """Finish every replica's monitors plus the fleet-level checks."""
        from repro.validate.monitors import check_cluster_report

        for replica in self.replicas:
            self.violations.extend(
                self._suites[replica.replica_id].finish(
                    replica.report, admitted=replica.assigned
                )
            )
        self.violations.extend(check_cluster_report(self.report))
        if self.violations:
            preview = "\n".join(str(v) for v in self.violations[:5])
            raise ValidationError(
                f"cluster run violated {len(self.violations)} "
                f"invariant(s)\n{preview}"
            )


def run_cluster(
    world: World,
    system: str,
    spec: ClusterSpec,
    requests: Sequence[Request] | None = None,
    fault_config: FaultConfig | None = None,
    cluster_faults: ClusterFaultConfig | None = None,
    slo: SLOConfig | None = None,
    cache_budget_bytes: int | None = None,
    validate: bool = False,
    observers: Sequence[ClusterObserver] = (),
) -> ClusterReport:
    """Serve a request trace on a simulated multi-replica cluster.

    ``requests`` defaults to the world's test split.  ``fault_config`` is
    instantiated into an independent (pure, seeded) fault oracle per
    replica — or only on ``spec.fault_replica`` when set.
    ``cluster_faults`` scripts cluster-scope chaos (replica crashes,
    zone outages, link degradation).  Every run records one
    request-level outcome per request; the report's ``resilience``
    section is present only when ``spec.resilience`` or
    ``cluster_faults`` is set.  ``validate`` attaches invariant
    monitors to every replica engine plus fleet-level conservation
    checks, raising :class:`~repro.errors.ValidationError` on any breach
    (the monitors only observe — results are unchanged).

    ``observers`` subscribe to the run
    (:class:`~repro.cluster.observer.ClusterObserver`), e.g.
    ``observers=[TracerObserver(tracer), MetricsObserver(registry),
    JourneyRecorder(), FleetSeries(), SLOTracker()]`` from
    :mod:`repro.obs`: cluster and per-replica trace lanes,
    ``repro_cluster_*`` instruments, per-request phase records,
    per-replica health snapshots, and burn-rate alerting landing on
    ``report.slo_summary``.  All are pure observers of the virtual clock.
    """
    driver = ClusterDriver(
        world,
        system,
        spec,
        fault_config=fault_config,
        cluster_faults=cluster_faults,
        slo=slo,
        cache_budget_bytes=cache_budget_bytes,
        validate=validate,
        observers=observers,
    )
    return driver.run(
        list(requests) if requests is not None else world.test_requests
    )
