"""Cluster-run subscribers for the tracer and the metrics registry.

:class:`TracerObserver` draws a cluster run on a :class:`Tracer`: one
enclosing span plus route and scale instants on the cluster lane, and
each served request (and each cancelled hedge loser, linked to its
winner by a flow arrow) on its replica's lane.  :class:`MetricsObserver`
keeps the ``repro_cluster_*`` instruments of a :class:`MetricsRegistry`.
Both attach through ``run_cluster(..., observers=[...])``.
"""

from __future__ import annotations

from repro.cluster.observer import ClusterObserver
from repro.cluster.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    RUNG_FULL,
    RUNG_NAMES,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import CLUSTER_LANE, Tracer, replica_lane

#: Breaker state → numeric gauge value (closed < half-open < open).
_BREAKER_STATE_VALUES = {
    BREAKER_CLOSED: 0.0,
    BREAKER_HALF_OPEN: 1.0,
    BREAKER_OPEN: 2.0,
}

#: Every cluster instrument: name → help text.
_HELP = {
    "repro_cluster_replicas": "Replicas currently accepting work",
    "repro_cluster_degradation_rung":
        "Degradation-ladder rung in force at the last admission",
    "repro_cluster_rung_changes_total":
        "Degradation-ladder rung changes, by rung entered",
    "repro_cluster_crashes_total":
        "Replica crashes applied from the fault script",
    "repro_cluster_restarts_total":
        "Replacement replicas rejoining after a crash",
    "repro_cluster_scale_actions_total": "Autoscaler actions by kind",
    "repro_cluster_breaker_transitions_total":
        "Circuit-breaker state changes by replica and new state",
    "repro_cluster_breaker_state":
        "Circuit-breaker state by replica (0 closed, 1 half-open, 2 open)",
    "repro_cluster_failover_routes_total":
        "Routing decisions that excluded a failed replica",
    "repro_cluster_retry_dispatches_total":
        "Retry dispatches after sheds or crash failover, by replica",
    "repro_cluster_routed_total":
        "Requests dispatched, by replica and decision reason",
    "repro_cluster_hedges_total":
        "Hedged dispatches by primary replica and result (win: hedge "
        "finished first, loss: primary held, cancelled: hedge shed on "
        "arrival)",
    "repro_cluster_resilience_shed_total":
        "Requests shed by the resilience layer, by reason",
}


class TracerObserver(ClusterObserver):
    """Cluster lane and per-replica serve lanes on one :class:`Tracer`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._start: float | None = None

    def on_run_start(self, driver, time) -> None:
        self._start = time
        self.tracer.set_lane_name(CLUSTER_LANE, "cluster")
        self.tracer.begin(
            "cluster",
            time,
            tid=CLUSTER_LANE,
            category="cluster",
            router=driver.spec.router,
        )

    def on_spawn(self, driver, replica) -> None:
        replica_id = replica.replica_id
        self.tracer.set_lane_name(
            replica_lane(replica_id), f"replica {replica_id}"
        )

    def on_scale(self, driver, event) -> None:
        self.tracer.instant(
            f"scale:{event.action}",
            event.time,
            tid=CLUSTER_LANE,
            category="cluster",
            replica=event.replica_id,
            outstanding=event.outstanding,
        )

    def on_dispatch(self, record, reason, score) -> None:
        self.tracer.instant(
            "route",
            record.time,
            tid=CLUSTER_LANE,
            category="cluster",
            request=record.request_id,
            replica=record.replica_id,
            reason=reason,
            kind=record.kind,
            score=round(score, 4),
        )

    def on_hedge(
        self, request_id, result, primary_id, primary, hedge_id, hedge
    ) -> None:
        if hedge is None:
            return
        # Both copies ran: draw the cancelled loser, linked to the winner
        # with a flow arrow across replica lanes.
        loser, loser_id = (
            (primary, primary_id) if result == "win" else (hedge, hedge_id)
        )
        self.tracer.complete(
            f"request {request_id} (hedge loser)",
            loser.start_time,
            loser.finish_time,
            tid=replica_lane(loser_id),
            category="cluster",
            role="cancelled",
        )
        self.tracer.flow(
            "hedge",
            request_id,
            primary.start_time,
            replica_lane(primary_id),
            hedge.start_time,
            replica_lane(hedge_id),
        )

    def on_served(self, outcome, winner) -> None:
        self.tracer.complete(
            f"request {outcome.request_id}",
            winner.start_time,
            winner.finish_time,
            tid=replica_lane(outcome.replica_id),
            category="cluster",
            ttft=round(outcome.ttft, 6),
        )

    def on_finish(self, driver, report) -> None:
        if self._start is None:
            return
        end_ts = max([self._start] + [r.engine.now for r in driver.replicas])
        self.tracer.end(
            end_ts, tid=CLUSTER_LANE, replicas=len(driver.replicas)
        )


class MetricsObserver(ClusterObserver):
    """The ``repro_cluster_*`` counters and gauges of one registry."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._last_rung = RUNG_FULL

    def _counter(self, name: str):
        return self.registry.counter(name, _HELP[name])

    def _gauge(self, name: str):
        return self.registry.gauge(name, _HELP[name])

    def on_spawn(self, driver, replica) -> None:
        self._gauge("repro_cluster_replicas").set(len(driver.accepting()))

    def on_admit(self, request, outcome) -> None:
        rung = outcome.rung
        self._gauge("repro_cluster_degradation_rung").set(float(rung))
        if rung != self._last_rung:
            self._counter("repro_cluster_rung_changes_total").inc(
                rung=RUNG_NAMES[rung]
            )
        self._last_rung = rung

    def on_scale(self, driver, event) -> None:
        replica = str(event.replica_id)
        if event.action == "crash":
            self._counter("repro_cluster_crashes_total").inc(replica=replica)
        elif event.action == "restart":
            self._counter("repro_cluster_restarts_total").inc(replica=replica)
        self._counter("repro_cluster_scale_actions_total").inc(
            action=event.action
        )
        self._gauge("repro_cluster_replicas").set(len(driver.accepting()))

    def on_breaker(self, transition) -> None:
        replica = str(transition.replica_id)
        self._counter("repro_cluster_breaker_transitions_total").inc(
            replica=replica, state=transition.state
        )
        self._gauge("repro_cluster_breaker_state").set(
            _BREAKER_STATE_VALUES[transition.state], replica=replica
        )

    def on_failover_route(self, time) -> None:
        self._counter("repro_cluster_failover_routes_total").inc()

    def on_dispatch(self, record, reason, score) -> None:
        replica = str(record.replica_id)
        if record.kind == "retry":
            self._counter("repro_cluster_retry_dispatches_total").inc(
                replica=replica
            )
        self._counter("repro_cluster_routed_total").inc(
            replica=replica, reason=reason
        )

    def on_hedge(
        self, request_id, result, primary_id, primary, hedge_id, hedge
    ) -> None:
        self._counter("repro_cluster_hedges_total").inc(
            replica=str(primary_id), result=result
        )

    def on_shed(self, outcome) -> None:
        self._counter("repro_cluster_resilience_shed_total").inc(
            reason=outcome.reason
        )
