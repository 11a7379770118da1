"""Unit tests for the cluster resilience layer.

Covers the mechanisms in isolation (token bucket, degradation ladder,
circuit breaker, dispatch budget), the driver's tracked dispatch path
end-to-end (crash/recovery, retry-budget exhaustion, half-open probing,
admission control, hedging), the byte-parity contract (resilience
disabled must serialize identically to the committed pre-resilience
goldens), and the SLO-attainment denominator fix.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster import (
    ClusterReport,
    ClusterSpec,
    RequestOutcome,
    ResilienceConfig,
    cluster_report_to_json,
    run_cluster,
)
from repro.cluster.config import AutoscalerConfig
from repro.cluster.resilience import (
    BREAKER_CLOSED,
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
from repro.errors import ConfigError
from repro.serving.faults import ClusterFaultConfig, ReplicaCrash
from repro.serving.metrics import ServingReport

from tests._cluster_testkit import arrival_trace, tiny_world

GOLDEN = Path(__file__).parent / "golden"


# --------------------------------------------------------------------- #
# Mechanisms in isolation
# --------------------------------------------------------------------- #


class TestTokenBucket:
    def test_burst_then_rate_limited(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        assert bucket.allow(0.0)
        assert bucket.allow(0.0)
        assert not bucket.allow(0.0)

    def test_refills_with_virtual_time(self):
        bucket = TokenBucket(rate=2.0, burst=1)
        assert bucket.allow(0.0)
        assert not bucket.allow(0.0)
        assert bucket.allow(0.5)

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3)
        bucket.allow(0.0)
        admitted = sum(1 for _ in range(10) if bucket.allow(1000.0))
        assert admitted == 3

    def test_out_of_order_query_skips_refill(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        assert bucket.allow(5.0)
        assert not bucket.allow(1.0)


class TestDegradationLadder:
    def test_rungs_follow_depth_thresholds(self):
        ladder = DegradationLadder(
            ResilienceConfig(
                prefetch_off_depth=2.0,
                substitution_depth=4.0,
                shed_depth=6.0,
            )
        )
        assert ladder.rung(0.0, 0.0) == RUNG_FULL
        assert ladder.rung(2.0, 0.0) == RUNG_NO_PREFETCH
        assert ladder.rung(4.0, 0.0) == RUNG_SUBSTITUTE
        assert ladder.rung(6.0, 0.0) == RUNG_SHED

    def test_open_breaker_majority_forces_substitution(self):
        ladder = DegradationLadder(ResilienceConfig())
        assert ladder.rung(0.0, 0.5) == RUNG_SUBSTITUTE
        assert ladder.rung(0.0, 0.49) == RUNG_FULL

    def test_none_depths_disable_rungs(self):
        ladder = DegradationLadder(
            ResilienceConfig(
                prefetch_off_depth=None,
                substitution_depth=None,
                shed_depth=None,
            )
        )
        assert ladder.rung(1e9, 0.0) == RUNG_FULL


class TestCircuitBreaker:
    CFG = ResilienceConfig(
        breaker_window=4,
        breaker_min_samples=2,
        breaker_failure_threshold=0.5,
        breaker_open_seconds=10.0,
    )

    def test_opens_at_failure_threshold(self):
        breaker = CircuitBreaker(self.CFG)
        breaker.record(False, 1.0)
        assert breaker.state(1.0) == BREAKER_CLOSED  # below min_samples
        breaker.record(False, 2.0)
        assert breaker.state(2.0) == BREAKER_OPEN

    def test_half_open_after_cooldown_then_probe_closes(self):
        transitions = []
        breaker = CircuitBreaker(
            self.CFG, on_transition=lambda t, s: transitions.append((t, s))
        )
        breaker.record(False, 0.0)
        breaker.record(False, 0.0)
        assert breaker.state(9.0) == BREAKER_OPEN
        assert breaker.state(10.0) == BREAKER_HALF_OPEN
        breaker.record(True, 11.0)
        assert breaker.state(11.0) == BREAKER_CLOSED
        assert [s for _, s in transitions] == [
            BREAKER_OPEN,
            BREAKER_HALF_OPEN,
            BREAKER_CLOSED,
        ]

    def test_probe_failure_reopens_for_full_cooldown(self):
        breaker = CircuitBreaker(self.CFG)
        breaker.record(False, 0.0)
        breaker.record(False, 0.0)
        assert breaker.state(10.0) == BREAKER_HALF_OPEN
        breaker.record(False, 10.0)
        assert breaker.state(19.9) == BREAKER_OPEN
        assert breaker.state(20.0) == BREAKER_HALF_OPEN

    def test_promotion_timestamped_at_cooldown_not_query(self):
        transitions = []
        breaker = CircuitBreaker(
            self.CFG, on_transition=lambda t, s: transitions.append((t, s))
        )
        breaker.record(False, 0.0)
        breaker.record(False, 0.0)
        breaker.state(500.0)  # late query
        assert transitions[-1] == (10.0, BREAKER_HALF_OPEN)

    def test_window_cleared_on_open(self):
        breaker = CircuitBreaker(self.CFG)
        breaker.record(False, 0.0)
        breaker.record(False, 0.0)
        breaker.state(10.0)
        breaker.record(True, 10.0)  # probe closes
        # Old failures must not linger: fresh window needs min_samples
        # of new evidence before it can open again.
        breaker.record(False, 11.0)
        assert breaker.state(11.0) == BREAKER_CLOSED


class TestDispatchBudget:
    def test_grants_up_to_floor_fraction(self):
        budget = DispatchBudget(0.25)
        assert not budget.try_take(3)  # floor(0.75) == 0
        assert budget.try_take(4)
        assert not budget.try_take(4)
        assert budget.used == 1
        assert budget.denied == 2

    def test_zero_fraction_never_grants(self):
        budget = DispatchBudget(0.0)
        assert not budget.try_take(10**6)

    def test_limit_is_floor(self):
        assert DispatchBudget(0.5).limit(5) == 2


class TestResilienceConfigValidation:
    def test_depths_must_be_monotone(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(
                prefetch_off_depth=5.0,
                substitution_depth=3.0,
            )

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(retry_budget_fraction=1.5)
        with pytest.raises(ConfigError):
            ResilienceConfig(hedge_budget_fraction=-0.1)

    def test_breaker_samples_bounded_by_window(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(breaker_window=2, breaker_min_samples=3)

    def test_bad_rates_rejected(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(admission_rate=0.0)
        with pytest.raises(ConfigError):
            ResilienceConfig(hedge_after_seconds=0.0)
        with pytest.raises(ConfigError):
            ResilienceConfig(breaker_open_seconds=-1.0)


# --------------------------------------------------------------------- #
# Byte parity: resilience disabled == pre-resilience build
# --------------------------------------------------------------------- #


class TestLegacyByteParity:
    def test_affinity_cluster_matches_golden(self):
        world = tiny_world()
        report = run_cluster(
            world,
            "fmoe",
            ClusterSpec(replicas=2, router="semantic-affinity"),
            requests=arrival_trace(world, n=8),
            validate=True,
        )
        golden = (GOLDEN / "cluster_tiny_affinity.json").read_text()
        assert cluster_report_to_json(report) == golden

    def test_autoscaled_cluster_matches_golden(self):
        world = tiny_world()
        report = run_cluster(
            world,
            "fmoe",
            ClusterSpec(
                replicas=1,
                router="least-outstanding",
                autoscaler=AutoscalerConfig(
                    max_replicas=3,
                    cooldown_seconds=1.0,
                    scale_up_queue_depth=1.5,
                ),
            ),
            requests=arrival_trace(world, n=8),
            validate=True,
        )
        golden = (GOLDEN / "cluster_tiny_autoscale.json").read_text()
        assert cluster_report_to_json(report) == golden

    def test_legacy_json_has_no_resilience_keys(self):
        world = tiny_world()
        report = run_cluster(
            world,
            "fmoe",
            ClusterSpec(replicas=2),
            requests=arrival_trace(world, n=4),
        )
        assert report.resilience is None
        payload = json.loads(cluster_report_to_json(report))
        assert "resilience" not in payload
        assert all("crashed" not in r for r in payload["replicas"])


# --------------------------------------------------------------------- #
# Driver end-to-end: tracked dispatch path
# --------------------------------------------------------------------- #


def run_tracked(
    spec: ClusterSpec,
    cluster_faults: ClusterFaultConfig | None = None,
    n: int = 8,
    gap: float = 0.5,
):
    world = tiny_world()
    return run_cluster(
        world,
        "fmoe",
        spec,
        requests=arrival_trace(world, n=n, gap=gap),
        cluster_faults=cluster_faults,
        validate=True,
    )


class TestCrashRecovery:
    # tiny_world serves take ~0.2s, so a crash at t=0.1 catches the
    # first request mid-serve on replica 0 (least-outstanding sends the
    # whole 0.5s-gap trace there).
    CRASH = ClusterFaultConfig(
        crashes=(ReplicaCrash(time=0.1, replica=0, restart_delay=1.0),)
    )

    def test_crash_retracts_and_retries_in_flight_work(self):
        report = run_tracked(
            ClusterSpec(
                replicas=2,
                router="least-outstanding",
                # The crash lands after a single routed request, where
                # the default 25% budget still rounds down to zero.
                resilience=ResilienceConfig(retry_budget_fraction=1.0),
            ),
            cluster_faults=self.CRASH,
        )
        res = report.resilience
        assert res.crashes == 1
        assert res.restarts == 1
        assert res.lost_in_flight > 0
        assert res.retry_dispatches >= res.lost_in_flight
        assert report.replicas[0].crashed
        # Conservation: one outcome per request, none pending, and the
        # retried work ends up served elsewhere.
        assert len(report.outcomes) == report.routed
        assert all(o.outcome == "served" for o in report.outcomes)
        # No served outcome may claim the crashed replica past its death.
        for outcome in report.outcomes:
            if outcome.outcome == "served" and outcome.replica_id == 0:
                assert outcome.arrival + outcome.latency <= 0.1 + 1e-9

    def test_restart_spawns_fresh_cold_replica(self):
        report = run_tracked(
            ClusterSpec(
                replicas=2,
                router="least-outstanding",
                resilience=ResilienceConfig(),
            ),
            cluster_faults=self.CRASH,
        )
        (event,) = report.recovery_events
        assert event.crashed_replica == 0
        assert event.new_replica == 2
        assert event.restored_experts == 0  # no shared store: fully cold

    def test_restart_rewarms_from_shared_store(self):
        report = run_tracked(
            ClusterSpec(
                replicas=2,
                router="least-outstanding",
                shared_store=True,
                resilience=ResilienceConfig(),
            ),
            cluster_faults=self.CRASH,
        )
        (event,) = report.recovery_events
        assert event.restored_experts > 0

    def test_restart_warm_from_store_opt_out(self):
        report = run_tracked(
            ClusterSpec(
                replicas=2,
                router="least-outstanding",
                shared_store=True,
                resilience=ResilienceConfig(
                    restart_warm_from_store=False
                ),
            ),
            cluster_faults=self.CRASH,
        )
        (event,) = report.recovery_events
        assert event.restored_experts == 0

    def test_no_resilience_crash_fails_lost_requests(self):
        """The off arm still tracks outcomes; lost work becomes failed."""
        report = run_tracked(
            ClusterSpec(replicas=2, router="least-outstanding"),
            cluster_faults=ClusterFaultConfig(
                crashes=(ReplicaCrash(time=0.1, replica=0),)
            ),
        )
        res = report.resilience
        assert res.lost_in_flight > 0
        assert res.failed == res.lost_in_flight
        assert res.retry_dispatches == 0
        failed = [o for o in report.outcomes if o.outcome == "failed"]
        assert failed and all(o.reason == "crash" for o in failed)


class TestRetryBudget:
    def test_exhaustion_fails_requests_and_is_counted(self):
        report = run_tracked(
            ClusterSpec(
                replicas=2,
                router="least-outstanding",
                resilience=ResilienceConfig(retry_budget_fraction=0.0),
            ),
            cluster_faults=ClusterFaultConfig(
                crashes=(ReplicaCrash(time=0.1, replica=0),)
            ),
        )
        res = report.resilience
        assert res.lost_in_flight > 0
        assert res.retry_dispatches == 0
        assert res.retry_budget_exhausted == res.lost_in_flight
        assert res.failed == res.lost_in_flight

    def test_budget_never_exceeded(self):
        report = run_tracked(
            ClusterSpec(
                replicas=3,
                router="least-outstanding",
                resilience=ResilienceConfig(retry_budget_fraction=0.25),
            ),
            cluster_faults=ClusterFaultConfig(
                crashes=(
                    ReplicaCrash(time=0.1, replica=0),
                    ReplicaCrash(time=0.3, replica=1),
                )
            ),
            n=12,
            gap=0.25,
        )
        res = report.resilience
        assert res.retry_dispatches <= res.retry_budget_limit


class TestBreakersEndToEnd:
    def test_failing_replicas_open_shed_then_probe(self):
        """A TTFT budget no serve can meet opens every breaker; requests
        then shed on breakers until the cool-down admits a probe."""
        report = run_tracked(
            ClusterSpec(
                replicas=2,
                router="round-robin",
                resilience=ResilienceConfig(
                    max_attempts_per_request=1,
                    breaker_window=2,
                    breaker_min_samples=1,
                    breaker_failure_threshold=0.5,
                    breaker_open_seconds=2.0,
                    breaker_failure_ttft_seconds=1e-9,
                ),
            ),
            cluster_faults=ClusterFaultConfig(
                crashes=(ReplicaCrash(time=1e6, replica=0),)
            ),
            n=12,
            gap=0.5,
        )
        res = report.resilience
        assert res.breaker_opens >= 2
        assert res.shed_breaker >= 1
        assert res.breaker_probes >= 1
        # The validate monitors already replayed the journal: no dispatch
        # ever landed on an open breaker.
        assert any(d.probe for d in report.dispatch_log)

    def test_breakers_disabled_never_transition(self):
        report = run_tracked(
            ClusterSpec(
                replicas=2,
                router="round-robin",
                resilience=ResilienceConfig(
                    breakers_enabled=False,
                    breaker_failure_ttft_seconds=1e-9,
                ),
            ),
        )
        res = report.resilience
        assert res.breaker_opens == 0
        assert not report.breaker_transitions

    def test_healthy_fleet_never_opens_a_breaker(self):
        report = run_tracked(
            ClusterSpec(
                replicas=2,
                router="least-outstanding",
                resilience=ResilienceConfig(),
            ),
        )
        assert report.resilience.breaker_opens == 0


class TestAdmissionAndLadder:
    def test_token_bucket_sheds_bursts(self):
        report = run_tracked(
            ClusterSpec(
                replicas=2,
                router="least-outstanding",
                resilience=ResilienceConfig(
                    admission_rate=0.5, admission_burst=1
                ),
            ),
            n=8,
            gap=0.1,
        )
        res = report.resilience
        assert res.shed_admission > 0
        shed = [o for o in report.outcomes if o.outcome == "shed"]
        assert all(o.reason == "admission" for o in shed)

    def test_priority_bypasses_admission(self):
        from dataclasses import replace

        world = tiny_world()
        trace = [
            replace(r, priority=1)
            for r in arrival_trace(world, n=8, gap=0.1)
        ]
        report = run_cluster(
            world,
            "fmoe",
            ClusterSpec(
                replicas=2,
                router="least-outstanding",
                resilience=ResilienceConfig(
                    admission_rate=0.5,
                    admission_burst=1,
                    priority_bypass_level=1,
                ),
            ),
            requests=trace,
            validate=True,
        )
        assert report.resilience.shed_admission == 0

    def test_shed_rung_drops_arrivals_under_backlog(self):
        report = run_tracked(
            ClusterSpec(
                replicas=1,
                router="round-robin",
                resilience=ResilienceConfig(
                    prefetch_off_depth=0.5,
                    substitution_depth=1.0,
                    shed_depth=2.0,
                ),
            ),
            n=10,
            gap=0.05,
        )
        res = report.resilience
        assert res.shed_ladder > 0
        assert res.rung_counts.get(RUNG_SHED, 0) > 0

    def test_substitution_rung_degrades_instead_of_blocking(self):
        report = run_tracked(
            ClusterSpec(
                replicas=1,
                router="round-robin",
                warm=False,
                resilience=ResilienceConfig(
                    prefetch_off_depth=0.0001,
                    substitution_depth=0.0002,
                    shed_depth=None,
                ),
            ),
            n=8,
            gap=0.05,
        )
        res = report.resilience
        assert res.rung_counts.get(RUNG_SUBSTITUTE, 0) > 0
        assert report.aggregate.degraded_tokens > 0


class TestHedging:
    def test_hedges_fire_and_winner_counted_once(self):
        report = run_tracked(
            ClusterSpec(
                replicas=2,
                router="least-outstanding",
                resilience=ResilienceConfig(
                    hedge_after_seconds=0.01,
                    hedge_budget_fraction=1.0,
                ),
            ),
            n=8,
            gap=0.1,
        )
        res = report.resilience
        assert res.hedges > 0
        assert res.hedge_wins <= res.hedges
        assert res.hedges_cancelled <= res.hedges
        assert (
            sum(1 for o in report.outcomes if o.hedge_won)
            == res.hedge_wins
        )

    def test_hedged_run_is_deterministic(self):
        spec = ClusterSpec(
            replicas=3,
            router="least-outstanding",
            resilience=ResilienceConfig(
                hedge_after_seconds=0.01, hedge_budget_fraction=1.0
            ),
        )
        first = run_tracked(spec, n=10, gap=0.1)
        second = run_tracked(spec, n=10, gap=0.1)
        assert cluster_report_to_json(first) == cluster_report_to_json(
            second
        )

    def test_hedge_budget_respected(self):
        report = run_tracked(
            ClusterSpec(
                replicas=2,
                router="least-outstanding",
                resilience=ResilienceConfig(
                    hedge_after_seconds=0.01,
                    hedge_budget_fraction=0.1,
                ),
            ),
            n=10,
            gap=0.1,
        )
        res = report.resilience
        assert res.hedges <= res.hedge_budget_limit

    def test_single_replica_hedge_fizzles(self):
        """With no secondary to hedge to, hedges are counted but never
        dispatched (and never cancelled)."""
        report = run_tracked(
            ClusterSpec(
                replicas=1,
                router="round-robin",
                resilience=ResilienceConfig(
                    hedge_after_seconds=0.01, hedge_budget_fraction=1.0
                ),
            ),
            n=6,
            gap=0.1,
        )
        res = report.resilience
        assert res.hedges > 0
        assert res.hedges_cancelled == 0
        assert not [
            d for d in report.dispatch_log if d.kind == "hedge"
        ]


# --------------------------------------------------------------------- #
# Satellite: SLO-attainment denominator contract
# --------------------------------------------------------------------- #


class TestSLOAttainment:
    def _outcome(self, rid, outcome, latency=None):
        record = RequestOutcome(request_id=rid, arrival=0.0)
        record.outcome = outcome
        record.latency = latency
        return record

    def test_outcomes_partition_the_denominator(self):
        report = ClusterReport(routed=4)
        report.outcomes = [
            self._outcome(0, "served", 1.0),
            self._outcome(1, "served", 9.0),
            self._outcome(2, "shed"),
            self._outcome(3, "failed"),
        ]
        # Only the in-deadline serve attains; shed and failed requests
        # stay in the denominator.
        assert report.slo_attainment(2.0) == 0.25
        assert report.slo_attainment(10.0) == 0.5

    def test_shedding_never_improves_attainment(self):
        served = ClusterReport(routed=2)
        served.outcomes = [
            self._outcome(0, "served", 1.0),
            self._outcome(1, "served", 99.0),
        ]
        shed = ClusterReport(routed=2)
        shed.outcomes = [
            self._outcome(0, "served", 1.0),
            self._outcome(1, "shed"),
        ]
        assert shed.slo_attainment(2.0) <= served.slo_attainment(2.0)

    def test_legacy_fallback_counts_shed_in_denominator(self):
        report = ClusterReport(routed=2)
        aggregate = ServingReport()
        aggregate.shed_requests = 2
        report.aggregate = aggregate
        assert report.slo_attainment(10.0) == 0.0

    def test_empty_report_is_zero_not_nan(self):
        assert ClusterReport().slo_attainment(1.0) == 0.0


class TestStormRowsInput:
    def test_spec_carrying_resilience_is_a_config_error(self):
        """Both arms share the spec; the on-arm knobs go in resilience=."""
        from repro.experiments.resilience import storm_rows

        spec = ClusterSpec(replicas=3, resilience=ResilienceConfig())
        with pytest.raises(ConfigError, match="resilience="):
            storm_rows(cluster=spec)
