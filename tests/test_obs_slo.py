"""SLO burn-rate alerting: windows, rules, edges, and outcome replay.

Covers the sliding windows, rule validation, multi-window firing logic
(both windows must exceed the threshold), rising-edge alert history,
budget accounting, the outcome-replay entry points (live driver objects
and serialized report dicts), and the rendered summary.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec, ResilienceConfig, run_cluster
from repro.errors import TelemetryError
from repro.obs import (
    BurnRateRule,
    SLOTracker,
    default_burn_rules,
    render_slo_summary,
)
from repro.obs.slo import _Window, tracker_from_outcome_dicts
from repro.serving.faults import SLOConfig

from tests._cluster_testkit import arrival_trace, tiny_world


class TestWindow:
    def test_error_rate_over_span(self):
        w = _Window(span=10.0)
        w.observe(0.0, True)
        w.observe(1.0, False)
        assert w.error_rate() == pytest.approx(0.5)

    def test_old_events_age_out(self):
        w = _Window(span=1.0)
        w.observe(0.0, False)
        w.observe(2.0, True)
        assert w.error_rate() == 0.0

    def test_empty_window_is_clean(self):
        assert _Window(span=1.0).error_rate() == 0.0


class TestRules:
    def test_default_rules_scale(self):
        fast, slow = default_burn_rules(scale=2.0)
        assert fast.long_window == 120.0 and fast.short_window == 10.0
        assert slow.long_window == 1200.0 and slow.short_window == 120.0

    def test_invalid_rules_rejected(self):
        with pytest.raises(TelemetryError):
            BurnRateRule("bad", -1.0, 1.0, 1.0)
        with pytest.raises(TelemetryError):
            BurnRateRule("bad", 1.0, 2.0, 1.0)  # short > long
        with pytest.raises(TelemetryError):
            BurnRateRule("bad", 2.0, 1.0, 0.0)
        with pytest.raises(TelemetryError):
            default_burn_rules(scale=0.0)

    def test_invalid_tracker_params_rejected(self):
        with pytest.raises(TelemetryError):
            SLOTracker(objective=1.0)
        with pytest.raises(TelemetryError):
            SLOTracker(deadline_seconds=0.0)


def single_rule_tracker(threshold=5.0, objective=0.9):
    return SLOTracker(
        objective=objective,
        rules=[BurnRateRule("only", 10.0, 2.0, threshold)],
    )


class TestFiringLogic:
    def test_sustained_errors_fire(self):
        tracker = single_rule_tracker()
        for i in range(5):
            tracker.observe(i * 0.1, good=False)
        assert tracker.firing() == ["only"]
        assert tracker.alerts[0].state == "firing"

    def test_no_refire_while_already_firing(self):
        tracker = single_rule_tracker()
        for i in range(10):
            tracker.observe(i * 0.1, good=False)
        assert sum(1 for a in tracker.alerts if a.state == "firing") == 1

    def test_short_window_resets_alert(self):
        tracker = single_rule_tracker()
        for i in range(5):
            tracker.observe(i * 0.1, good=False)
        assert tracker.firing()
        # Good results flush the 2 s short window; the 10 s long window
        # still remembers the bad stretch, but both must exceed.
        for i in range(30):
            tracker.observe(1.0 + i * 0.1, good=True)
        assert not tracker.firing()
        assert tracker.alerts[-1].state == "resolved"

    def test_all_good_never_fires(self):
        tracker = single_rule_tracker()
        for i in range(50):
            tracker.observe(i * 0.1, good=True)
        assert tracker.alerts == []
        assert tracker.attainment() == 1.0
        assert tracker.budget_consumed() == 0.0

    def test_out_of_order_observation_rejected(self):
        tracker = single_rule_tracker()
        tracker.observe(1.0, True)
        with pytest.raises(TelemetryError):
            tracker.observe(0.5, True)

    def test_budget_accounting(self):
        tracker = single_rule_tracker(objective=0.9)
        for i in range(8):
            tracker.observe(float(i), good=True)
        for i in range(2):
            tracker.observe(8.0 + i, good=False)
        assert tracker.attainment() == pytest.approx(0.8)
        # 20% errors against a 10% budget: 2x consumed.
        assert tracker.budget_consumed() == pytest.approx(2.0)

    def test_summary_dict_shape(self):
        tracker = single_rule_tracker()
        for i in range(5):
            tracker.observe(i * 0.1, good=False)
        summary = tracker.to_dict()
        assert summary["observations"] == 5
        assert summary["firing"] == ["only"]
        assert summary["fired_counts"] == {"only": 1}
        assert summary["rules"][0]["name"] == "only"
        assert summary["alerts"][0]["state"] == "firing"


class TestOutcomeReplay:
    def test_replay_from_serialized_outcomes(self):
        outcomes = [
            {"request_id": 0, "outcome": "served", "arrival": 0.0,
             "latency": 0.5},
            {"request_id": 1, "outcome": "served", "arrival": 1.0,
             "latency": 5.0},  # deadline miss
            {"request_id": 2, "outcome": "shed", "arrival": 2.0,
             "latency": None},
        ]
        tracker = tracker_from_outcome_dicts(
            outcomes, objective=0.9, deadline_seconds=1.0
        )
        assert tracker.total == 3
        assert tracker.good == 1 and tracker.bad == 2

    def test_served_requests_resolve_at_completion_time(self):
        tracker = SLOTracker(
            deadline_seconds=10.0,
            rules=[BurnRateRule("only", 100.0, 10.0, 1.0)],
        )
        outcomes = [
            {"request_id": 0, "outcome": "served", "arrival": 0.0,
             "latency": 4.0},
            {"request_id": 1, "outcome": "served", "arrival": 3.0,
             "latency": 0.5},
        ]
        replayed = tracker_from_outcome_dicts(outcomes, deadline_seconds=10.0)
        # Request 1 completes at 3.5, before request 0 at 4.0 — replay
        # must sort by resolution time or monotonicity would blow up.
        assert replayed.total == 2
        assert tracker.total == 0  # unrelated tracker untouched

    def test_driver_run_lands_summary_in_report(self):
        world = tiny_world()
        tracker = SLOTracker(objective=0.9, deadline_seconds=1.0)
        report = run_cluster(
            world,
            "fmoe",
            ClusterSpec(replicas=2, resilience=ResilienceConfig()),
            requests=arrival_trace(world, n=8),
            observers=[tracker],
        )
        assert report.slo_summary is not None
        assert report.slo_summary["observations"] == len(report.outcomes)
        assert 0.0 <= report.slo_summary["attainment"] <= 1.0

    def test_untracked_run_has_no_summary(self):
        world = tiny_world()
        report = run_cluster(
            world,
            "fmoe",
            ClusterSpec(replicas=2),
            requests=arrival_trace(world, n=4),
        )
        assert report.slo_summary is None

    def test_legacy_run_feeds_from_aggregate(self):
        world = tiny_world()
        tracker = SLOTracker(objective=0.9, deadline_seconds=1.0)
        report = run_cluster(
            world,
            "fmoe",
            ClusterSpec(replicas=2),
            requests=arrival_trace(world, n=6),
            observers=[tracker],
        )
        assert report.slo_summary is not None
        assert report.slo_summary["observations"] > 0

    def test_unconfigured_run_counts_shed_requests(self):
        """Replica-shed requests are bad observations without resilience.

        A zero queue-delay budget sheds every request that has to wait,
        so only the first of ten back-to-back arrivals is served; the
        tracker must see all ten, agreeing with the report's attainment.
        """
        world = tiny_world()
        tracker = SLOTracker(deadline_seconds=100.0)
        report = run_cluster(
            world,
            "fmoe",
            ClusterSpec(replicas=1),
            requests=arrival_trace(world, n=10, gap=0.01),
            slo=SLOConfig(queue_delay_budget_seconds=0.0),
            observers=[tracker],
        )
        assert report.shed_requests == 9
        assert report.slo_attainment(100.0) == pytest.approx(0.1)
        assert tracker.total == 10
        assert tracker.attainment() == pytest.approx(0.1)
        assert report.slo_summary["observations"] == 10


class TestRender:
    def test_render_names_rules_and_alerts(self):
        tracker = single_rule_tracker()
        for i in range(5):
            tracker.observe(i * 0.1, good=False)
        text = render_slo_summary(tracker.to_dict())
        assert "rule only: FIRING" in text
        assert "alert timeline:" in text

    def test_render_quiet_tracker(self):
        tracker = SLOTracker()
        text = render_slo_summary(tracker.to_dict())
        assert "(no alerts)" in text


class TestTieredTracker:
    @staticmethod
    def _outcomes():
        from repro.cluster.metrics import RequestOutcome

        return [
            RequestOutcome(
                request_id=0, arrival=0.0, outcome="served", latency=0.2
            ),
            RequestOutcome(
                request_id=1, arrival=0.5, outcome="served", latency=5.0
            ),
            RequestOutcome(request_id=2, arrival=1.0, outcome="shed"),
            RequestOutcome(
                request_id=3, arrival=1.5, outcome="served", latency=0.1
            ),
        ]

    def test_partitions_conserve_observations(self):
        from repro.obs import TieredSLOTracker

        tracker = TieredSLOTracker(deadline_seconds=1.0)
        tiers = {0: "premium", 1: "batch", 2: "batch"}
        tracker.observe_outcomes(self._outcomes(), tiers)
        total = sum(t.total for t in tracker.trackers.values())
        assert total == 4
        # Request 3 has no tier mapping: it lands in the "" partition
        # rather than vanishing.
        assert tracker.trackers[""].total == 1

    def test_per_tier_attainment_independent(self):
        from repro.obs import TieredSLOTracker

        tracker = TieredSLOTracker(deadline_seconds=1.0)
        tiers = {0: "premium", 1: "batch", 2: "batch", 3: "premium"}
        tracker.observe_outcomes(self._outcomes(), tiers)
        assert tracker.trackers["premium"].attainment() == 1.0
        # batch: one late serve + one shed, both bad.
        assert tracker.trackers["batch"].attainment() == 0.0

    def test_to_dict_and_firing_shapes(self):
        from repro.obs import TieredSLOTracker

        tracker = TieredSLOTracker(deadline_seconds=1.0)
        tiers = {0: "premium", 1: "batch", 2: "batch", 3: "premium"}
        tracker.observe_outcomes(self._outcomes(), tiers)
        summary = tracker.to_dict()
        assert set(summary) == {"batch", "premium"}
        assert summary["batch"]["observations"] == 2
        firing = tracker.firing()
        assert all(isinstance(rules, list) for rules in firing.values())
