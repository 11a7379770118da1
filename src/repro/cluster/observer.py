"""Observers of a cluster run: one hook per record the driver journals.

A :class:`ClusterObserver` subscribes to a
:class:`~repro.cluster.driver.ClusterDriver` through its ``observers``
list, and the driver calls each one wherever it journals a record.
Tracing, metrics, journeys, fleet sampling and SLO accounting all ride
this one mechanism (see :mod:`repro.obs`).  Observers only read:
attaching any of them leaves the cluster report byte-identical, except
for the ``slo`` summary and tier attainment an SLO tracker fills in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.driver import ClusterDriver
    from repro.cluster.metrics import (
        BreakerTransition,
        ClusterReport,
        DispatchRecord,
        RequestOutcome,
        ScaleEvent,
    )
    from repro.cluster.replica import Replica
    from repro.serving.metrics import RequestMetrics
    from repro.serving.request import Request


class ClusterObserver:
    """A pure observer of one cluster run; every hook is a no-op."""

    def on_run_start(self, driver: ClusterDriver, time: float) -> None:
        """The first request arrived at virtual ``time``."""

    def on_spawn(self, driver: ClusterDriver, replica: Replica) -> None:
        """A replica joined the fleet; subscribe to ``replica.engine``
        here to observe its serves."""

    def on_arrival(self, driver: ClusterDriver, request: Request) -> None:
        """A request reached the cluster; nothing has acted on it yet."""

    def on_admit(self, request: Request, outcome: RequestOutcome) -> None:
        """A request was admitted at ``outcome.rung`` (it may still shed)."""

    def on_scale(self, driver: ClusterDriver, event: ScaleEvent) -> None:
        """The fleet changed: autoscaling, a crash, or a restart."""

    def on_breaker(self, transition: BreakerTransition) -> None:
        """A replica's circuit breaker changed state."""

    def on_failover_route(self, time: float) -> None:
        """A routing decision excluded a replica that lost a device."""

    def on_dispatch(
        self, record: DispatchRecord, reason: str, score: float
    ) -> None:
        """An attempt is about to serve; ``reason``/``score`` are the
        router's (``hedge``/0.0 for a speculative copy)."""

    def on_attempt_end(
        self, status: str, served: RequestMetrics | None
    ) -> None:
        """The in-flight attempt was ``served`` or ``shed``."""

    def on_hedge(
        self,
        request_id: int,
        result: str,
        primary_id: int,
        primary: RequestMetrics,
        hedge_id: int,
        hedge: RequestMetrics | None,
    ) -> None:
        """A hedge resolved: ``win`` (it finished first), ``loss`` (the
        primary held) or ``cancelled`` (shed on arrival, ``hedge`` None)."""

    def on_served(
        self, outcome: RequestOutcome, winner: RequestMetrics
    ) -> None:
        """A request resolved served; ``winner`` is the defining serve."""

    def on_shed(self, outcome: RequestOutcome) -> None:
        """A request resolved shed (``outcome.reason`` says where)."""

    def on_failed(self, outcome: RequestOutcome) -> None:
        """A request was lost in a crash and not recovered."""

    def on_quiesce(self, driver: ClusterDriver, time: float) -> None:
        """Every arrival and scripted fault is done; the fleet is idle."""

    def on_finish(self, driver: ClusterDriver, report: ClusterReport) -> None:
        """The report is folded; the validate checks run next."""
