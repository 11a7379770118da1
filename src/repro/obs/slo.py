"""SLO error-budget burn-rate alerting over the attainment stream.

Classic SRE multi-window alerting, transplanted onto the simulator's
virtual clock: each request resolution is an observation (``good`` when
the request served within its SLO deadline, bad when it missed, shed, or
failed), and a **burn rate** is how fast those observations consume the
error budget relative to the objective —

    ``burn = window_error_rate / (1 - objective)``

A burn of 1.0 spends the budget exactly on schedule; 14.4 exhausts a
30-day budget in ~2 days.  Each :class:`BurnRateRule` pairs a long
window (significance) with a short window (reset responsiveness) and
fires only when **both** exceed the threshold — the standard defence
against stale long-window alerts and noisy short-window ones.  Window
lengths here are virtual seconds scaled to simulation timescales rather
than the SRE book's hours.

:class:`SLOTracker` consumes the stream, maintains the windows, records
rising-edge :class:`SLOAlert` events (fire + resolve), and summarises
budget consumption for :class:`~repro.cluster.metrics.ClusterReport`
and the ``repro slo`` CLI.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.cluster.metrics import RequestOutcome
from repro.cluster.observer import ClusterObserver
from repro.errors import TelemetryError


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alerting rule."""

    name: str
    long_window: float
    """Significance window, virtual seconds."""

    short_window: float
    """Reset window, virtual seconds (must be <= long_window)."""

    burn_threshold: float
    """Fire when both windows burn faster than this multiple of budget."""

    def __post_init__(self) -> None:
        if self.long_window <= 0 or self.short_window <= 0:
            raise TelemetryError(
                f"rule {self.name!r}: windows must be > 0 "
                f"(got {self.long_window}/{self.short_window})"
            )
        if self.short_window > self.long_window:
            raise TelemetryError(
                f"rule {self.name!r}: short window {self.short_window} "
                f"exceeds long window {self.long_window}"
            )
        if self.burn_threshold <= 0:
            raise TelemetryError(
                f"rule {self.name!r}: burn threshold must be > 0 "
                f"(got {self.burn_threshold})"
            )


def default_burn_rules(scale: float = 1.0) -> list[BurnRateRule]:
    """The classic fast/slow rule pair, scaled to simulation time.

    At ``scale=1`` the fast page fires on a 60 s long / 5 s short pair
    at 14.4x budget burn, the slow ticket on 600 s / 60 s at 6x — the
    SRE-book ratios with seconds standing in for hours.
    """
    if scale <= 0:
        raise TelemetryError(f"scale must be > 0 (got {scale})")
    return [
        BurnRateRule("fast-burn", 60.0 * scale, 5.0 * scale, 14.4),
        BurnRateRule("slow-burn", 600.0 * scale, 60.0 * scale, 6.0),
    ]


@dataclass(frozen=True)
class SLOAlert:
    """One rising-edge alert transition (``firing`` or ``resolved``)."""

    time: float
    rule: str
    state: str
    burn_rate: float
    """Long-window burn at the transition."""

    short_burn_rate: float

    def to_dict(self) -> dict:
        """JSON-serializable form for the report's alert timeline."""
        return {
            "time": self.time,
            "rule": self.rule,
            "state": self.state,
            "burn_rate": self.burn_rate,
            "short_burn_rate": self.short_burn_rate,
        }


class _Window:
    """Sliding count of (time, good) observations over a fixed span."""

    def __init__(self, span: float) -> None:
        self.span = span
        self._events: deque[tuple[float, bool]] = deque()
        self._bad = 0

    def observe(self, time: float, good: bool) -> None:
        self._events.append((time, good))
        if not good:
            self._bad += 1
        self.advance(time)

    def advance(self, time: float) -> None:
        cutoff = time - self.span
        while self._events and self._events[0][0] <= cutoff:
            _, was_good = self._events.popleft()
            if not was_good:
                self._bad -= 1

    def error_rate(self) -> float:
        if not self._events:
            return 0.0
        return self._bad / len(self._events)


class SLOTracker(ClusterObserver):
    """Burn-rate alerting over a stream of request resolutions.

    Feed resolutions in non-decreasing time order via :meth:`observe`;
    alerts accumulate in :attr:`alerts` as rising/falling edges.  The
    tracker is a pure observer — it holds no reference to the driver and
    never touches the virtual clock.  Attached to a cluster run it
    replays the run's outcomes when the run finishes, landing its summary
    on ``report.slo_summary`` and each tier's ``slo_attainment``.
    """

    def __init__(
        self,
        objective: float = 0.9,
        deadline_seconds: float = 1.0,
        rules: Iterable[BurnRateRule] | None = None,
    ) -> None:
        if not 0.0 < objective < 1.0:
            raise TelemetryError(
                f"objective must be in (0, 1) (got {objective})"
            )
        if deadline_seconds <= 0:
            raise TelemetryError(
                f"deadline_seconds must be > 0 (got {deadline_seconds})"
            )
        self.objective = objective
        self.deadline_seconds = deadline_seconds
        self.rules = (
            list(rules) if rules is not None else default_burn_rules()
        )
        self.alerts: list[SLOAlert] = []
        self.good = 0
        self.bad = 0
        self._windows = {
            rule.name: (_Window(rule.long_window), _Window(rule.short_window))
            for rule in self.rules
        }
        self._firing: dict[str, bool] = {rule.name: False for rule in self.rules}
        self._last_time: float | None = None
        self._tiers: dict[int, str] = {}

    @property
    def error_budget(self) -> float:
        """The tolerated error fraction, ``1 - objective``."""
        return 1.0 - self.objective

    def observe(self, time: float, good: bool) -> None:
        """One request resolution at virtual ``time`` (monotone order)."""
        if self._last_time is not None and time < self._last_time:
            raise TelemetryError(
                f"observations must be time-ordered "
                f"({time} < {self._last_time})"
            )
        self._last_time = time
        if good:
            self.good += 1
        else:
            self.bad += 1
        for rule in self.rules:
            long_w, short_w = self._windows[rule.name]
            long_w.observe(time, good)
            short_w.observe(time, good)
            long_burn = long_w.error_rate() / self.error_budget
            short_burn = short_w.error_rate() / self.error_budget
            firing = (
                long_burn >= rule.burn_threshold
                and short_burn >= rule.burn_threshold
            )
            if firing != self._firing[rule.name]:
                self._firing[rule.name] = firing
                self.alerts.append(
                    SLOAlert(
                        time=time,
                        rule=rule.name,
                        state="firing" if firing else "resolved",
                        burn_rate=long_burn,
                        short_burn_rate=short_burn,
                    )
                )

    def observe_outcomes(
        self, outcomes, deadline_seconds: float | None = None
    ) -> None:
        """Replay a driver's request outcomes through the tracker.

        Outcomes are resolved at the client-visible moment: served
        requests when their last token lands, shed/failed requests at
        arrival (the client learns immediately).  Feeding the stream at
        finalize time — rather than live — keeps the alert history
        exact even when a crash retracts an already-served outcome.
        """
        deadline = (
            deadline_seconds
            if deadline_seconds is not None
            else self.deadline_seconds
        )
        resolutions = []
        for outcome in outcomes:
            if outcome.outcome == "served":
                when = outcome.arrival + (outcome.latency or 0.0)
                good = (outcome.latency or 0.0) <= deadline
            else:
                when = outcome.arrival
                good = False
            resolutions.append((when, outcome.request_id, good))
        for when, _, good in sorted(resolutions):
            self.observe(when, good)

    # ------------------------------------------------------------------ #
    # Cluster observer hooks
    # ------------------------------------------------------------------ #

    def on_admit(self, request, outcome) -> None:
        if request.tenant or request.tier:
            self._tiers[request.request_id] = request.tier

    def on_finish(self, driver, report) -> None:
        """Replay the run's outcomes; land the summary and tier attainment.

        Replaying at finish time, when the outcome set is final, means a
        crash retraction can never double-count.  A tier's attainment is
        the fraction of its *offered* requests served within the deadline.
        """
        self.observe_outcomes(report.outcomes)
        report.slo_summary = self.to_dict()
        if report.tenancy is None:
            return
        good: dict[str, int] = {}
        for outcome in report.outcomes:
            tier = self._tiers.get(outcome.request_id)
            if (
                tier is not None
                and outcome.outcome == "served"
                and outcome.latency is not None
                and outcome.latency <= self.deadline_seconds
            ):
                good[tier] = good.get(tier, 0) + 1
        for name, tier in report.tenancy.tiers.items():
            tier.slo_attainment = good.get(name, 0) / tier.offered

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #

    @property
    def total(self) -> int:
        return self.good + self.bad

    def attainment(self) -> float:
        """Overall fraction of good observations (1.0 when empty)."""
        return self.good / self.total if self.total else 1.0

    def budget_consumed(self) -> float:
        """Fraction of the error budget spent (can exceed 1.0)."""
        if not self.total:
            return 0.0
        return (self.bad / self.total) / self.error_budget

    def firing(self) -> list[str]:
        """Rules currently in the firing state, in rule order."""
        return [r.name for r in self.rules if self._firing[r.name]]

    def to_dict(self) -> dict:
        """The summary that lands in ClusterReport / ``repro slo``."""
        fired = {rule.name: 0 for rule in self.rules}
        for alert in self.alerts:
            if alert.state == "firing":
                fired[alert.rule] += 1
        return {
            "objective": self.objective,
            "deadline_seconds": self.deadline_seconds,
            "observations": self.total,
            "attainment": self.attainment(),
            "budget_consumed": self.budget_consumed(),
            "alerts": [alert.to_dict() for alert in self.alerts],
            "firing": self.firing(),
            "fired_counts": fired,
            "rules": [
                {
                    "name": rule.name,
                    "long_window": rule.long_window,
                    "short_window": rule.short_window,
                    "burn_threshold": rule.burn_threshold,
                }
                for rule in self.rules
            ],
        }


class TieredSLOTracker:
    """Per-SLO-tier burn-rate tracking: one :class:`SLOTracker` per tier.

    Multi-tenant runs burn budget at very different speeds per tier —
    under overload the driver sheds batch traffic first, so the batch
    tier's fast-burn rule should page long before premium's does.  This
    wrapper partitions the outcome stream by tier (via a request-id →
    tier mapping) and runs an independent tracker, with independent
    windows and alert timelines, over each partition.
    """

    def __init__(
        self,
        objective: float = 0.9,
        deadline_seconds: float = 1.0,
        rules: Iterable[BurnRateRule] | None = None,
    ) -> None:
        self.objective = objective
        self.deadline_seconds = deadline_seconds
        self.rules = list(rules) if rules is not None else None
        self.trackers: dict[str, SLOTracker] = {}

    def tracker_for(self, tier: str) -> SLOTracker:
        """The (lazily created) tracker owning one tier's stream."""
        if tier not in self.trackers:
            self.trackers[tier] = SLOTracker(
                objective=self.objective,
                deadline_seconds=self.deadline_seconds,
                rules=self.rules,
            )
        return self.trackers[tier]

    def observe_outcomes(self, outcomes, tiers: dict[int, str]) -> None:
        """Replay outcomes, partitioned by ``tiers`` (request-id → tier).

        Outcomes whose request id is missing from the mapping land in an
        ``""`` (untiered) partition rather than being dropped, so the
        per-tier observation counts always conserve the outcome count.
        """
        by_tier: dict[str, list] = {}
        for outcome in outcomes:
            tier = tiers.get(outcome.request_id, "")
            by_tier.setdefault(tier, []).append(outcome)
        for tier, tier_outcomes in sorted(by_tier.items()):
            self.tracker_for(tier).observe_outcomes(tier_outcomes)

    def to_dict(self) -> dict:
        """Tier → :meth:`SLOTracker.to_dict` summary, sorted by tier."""
        return {
            tier: tracker.to_dict()
            for tier, tracker in sorted(self.trackers.items())
        }

    def firing(self) -> dict[str, list[str]]:
        """Tiers with at least one rule firing (tier → rule names)."""
        result = {}
        for tier, tracker in sorted(self.trackers.items()):
            names = tracker.firing()
            if names:
                result[tier] = names
        return result


def tracker_from_outcome_dicts(
    outcome_dicts: Iterable[dict],
    objective: float = 0.9,
    deadline_seconds: float = 1.0,
    rules: Iterable[BurnRateRule] | None = None,
) -> SLOTracker:
    """Replay serialized request outcomes (cluster-report JSON form).

    The ``repro slo`` backend: rebuilds the alert timeline offline from
    a saved report's ``resilience.outcomes`` array, so burn-rate rules
    can be re-tuned without re-running the simulation.
    """
    tracker = SLOTracker(
        objective=objective, deadline_seconds=deadline_seconds, rules=rules
    )
    tracker.observe_outcomes(
        RequestOutcome(
            request_id=o.get("request_id", 0),
            arrival=o["arrival"],
            outcome=o.get("outcome", ""),
            latency=o.get("latency"),
        )
        for o in outcome_dicts
    )
    return tracker


def render_slo_summary(summary: dict) -> str:
    """Human-readable rendering of :meth:`SLOTracker.to_dict` output."""
    lines = [
        f"objective: {summary['objective']:.3f} "
        f"(error budget {1 - summary['objective']:.3f})",
        f"observations: {summary['observations']}  "
        f"attainment: {summary['attainment']:.3f}  "
        f"budget consumed: {summary['budget_consumed']:.2f}x",
    ]
    fired = summary.get("fired_counts", {})
    for rule in summary.get("rules", []):
        name = rule["name"]
        state = "FIRING" if name in summary.get("firing", []) else "ok"
        lines.append(
            f"rule {name}: {state} — fired {fired.get(name, 0)}x "
            f"(windows {rule['long_window']:g}s/{rule['short_window']:g}s "
            f"@ {rule['burn_threshold']:g}x)"
        )
    alerts = summary.get("alerts", [])
    if alerts:
        lines.append("alert timeline:")
        for alert in alerts:
            lines.append(
                f"  t={alert['time']:.3f} {alert['rule']} "
                f"{alert['state']} (burn {alert['burn_rate']:.1f}x, "
                f"short {alert['short_burn_rate']:.1f}x)"
            )
    else:
        lines.append("alert timeline: (no alerts)")
    return "\n".join(lines)
