"""Request journeys: phase attribution, winner uniqueness, JSONL export.

Covers the :class:`~repro.obs.journey.Journey` phase math in isolation,
the recorder riding real cluster runs (legacy and resilient paths, crash
retraction, hedging), the ISSUE acceptance criterion that every served
request in a chaos run names a critical-path phase with exactly one
winner attempt, and the JSONL round-trip plus rendering.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec, ResilienceConfig, run_cluster
from repro.errors import TelemetryError
from repro.obs import (
    Journey,
    JourneyRecorder,
    read_journeys_jsonl,
    render_journeys,
)
from repro.obs.journey import (
    PHASE_COMPUTE,
    PHASE_FETCH,
    PHASE_QUEUE,
    AttemptRecord,
)
from repro.serving.faults import ClusterFaultConfig, ReplicaCrash

from tests._cluster_testkit import arrival_trace, tiny_world


def make_served_journey(
    arrival=0.0, start=2.0, finish=5.0, fetch=1.0
) -> Journey:
    journey = Journey(request_id=1, arrival=arrival, outcome="served")
    journey.latency = finish - arrival
    journey.ttft = start - arrival + 0.1
    journey.replica_id = 0
    attempt = AttemptRecord(
        kind="primary",
        replica_id=0,
        dispatch_time=arrival,
        status="served",
        start_time=start,
        finish_time=finish,
        ondemand_seconds=fetch,
        winner=True,
    )
    journey.attempts.append(attempt)
    return journey


class TestPhaseMath:
    def test_phases_partition_the_client_latency(self):
        journey = make_served_journey(arrival=0.0, start=2.0, finish=5.0)
        phases = journey.phases()
        assert phases[PHASE_QUEUE] == pytest.approx(2.0)
        assert phases[PHASE_FETCH] == pytest.approx(1.0)
        assert phases[PHASE_COMPUTE] == pytest.approx(2.0)
        assert sum(phases.values()) == pytest.approx(journey.latency)

    def test_critical_phase_picks_the_dominant(self):
        assert (
            make_served_journey(start=4.0, finish=5.0).critical_phase()
            == PHASE_QUEUE
        )
        assert (
            make_served_journey(start=0.0, finish=1.5, fetch=1.0)
            .critical_phase()
            == PHASE_FETCH
        )
        assert (
            make_served_journey(start=0.0, finish=5.0, fetch=0.5)
            .critical_phase()
            == PHASE_COMPUTE
        )

    def test_ties_break_in_pipeline_order(self):
        journey = make_served_journey(start=1.0, finish=3.0, fetch=1.0)
        phases = journey.phases()
        assert phases[PHASE_QUEUE] == phases[PHASE_FETCH]
        assert journey.critical_phase() == PHASE_QUEUE

    def test_unserved_journeys_have_no_phases(self):
        journey = Journey(request_id=2, arrival=0.0, outcome="shed")
        assert journey.phases() == {}
        assert journey.critical_phase() == ""

    def test_fetch_combines_ondemand_and_prefetch_stalls(self):
        attempt = AttemptRecord(
            kind="primary",
            replica_id=0,
            dispatch_time=0.0,
            ondemand_seconds=0.3,
            prefetch_stall_seconds=0.2,
        )
        assert attempt.fetch_seconds == pytest.approx(0.5)


class TestRecorderProtocol:
    def test_resolve_served_marks_exactly_one_winner(self):
        rec = JourneyRecorder()
        rec.begin_request(1, 0.0)
        rec.begin_attempt(1, "primary", 0, 0.0)
        rec.end_attempt("shed")
        rec.begin_attempt(1, "retry", 1, 1.0)

        class Served:
            start_time = 1.2
            finish_time = 2.0
            ttft = 0.3

        rec.end_attempt("served", Served())
        rec.resolve_served(1, 1, 2.0, 1.5, 2.0)
        journey = rec.journeys[1]
        assert [a.winner for a in journey.attempts] == [False, True]
        assert journey.winner_attempt().kind == "retry"

    def test_resolve_served_without_matching_attempt_raises(self):
        rec = JourneyRecorder()
        rec.begin_request(1, 0.0)
        with pytest.raises(TelemetryError):
            rec.resolve_served(1, 0, 1.0, 0.5, 1.0)

    def test_crash_retraction_rebinds_the_winner(self):
        """A re-resolution (crash retraction path) moves the flag."""
        rec = JourneyRecorder()
        rec.begin_request(1, 0.0)

        class ServedA:
            start_time = 0.1
            finish_time = 1.0
            ttft = 0.2

        class ServedB:
            start_time = 2.1
            finish_time = 3.0
            ttft = 0.2

        rec.begin_attempt(1, "primary", 0, 0.0)
        rec.end_attempt("served", ServedA())
        rec.resolve_served(1, 0, 1.0, 0.2, 1.0)
        rec.begin_attempt(1, "retry", 1, 2.0)
        rec.end_attempt("served", ServedB())
        rec.resolve_served(1, 1, 3.0, 2.3, 3.0)
        winners = [a for a in rec.journeys[1].attempts if a.winner]
        assert len(winners) == 1
        assert winners[0].replica_id == 1

    def test_resolve_failed_clears_resolution(self):
        rec = JourneyRecorder()
        rec.begin_request(1, 0.0)
        rec.begin_attempt(1, "primary", 0, 0.0)
        rec.end_attempt("shed")
        rec.resolve_failed(1, "crash")
        journey = rec.journeys[1]
        assert journey.outcome == "failed"
        assert journey.reason == "crash"
        assert journey.latency is None
        assert journey.replica_id is None

    def test_events_only_attributed_to_active_replica(self):
        from repro.serving.events import Event, EventKind

        rec = JourneyRecorder()
        rec.begin_request(1, 0.0)
        rec.begin_attempt(1, "primary", 0, 0.0)
        hit = Event(
            time=0.1,
            kind=EventKind.EXPERT_HIT,
            iteration=0,
            layer=0,
            expert=0,
        )
        rec.replica_sink(0).emit(hit)
        rec.replica_sink(1).emit(hit)  # wrong replica: ignored
        assert rec.journeys[1].attempts[0].hits == 1
        rec.end_attempt("shed")
        rec.replica_sink(0).emit(hit)  # nothing active: ignored
        assert rec.journeys[1].attempts[0].hits == 1


def chaos_run(journeys: JourneyRecorder):
    world = tiny_world()
    return run_cluster(
        world,
        "fmoe",
        ClusterSpec(
            replicas=2,
            router="least-outstanding",
            resilience=ResilienceConfig(),
        ),
        requests=arrival_trace(world, n=10, gap=0.3),
        cluster_faults=ClusterFaultConfig(
            crashes=(ReplicaCrash(time=0.1, replica=0, restart_delay=1.0),)
        ),
        observers=[journeys],
    )


class TestClusterIntegration:
    def test_every_routed_request_gets_a_journey(self):
        rec = JourneyRecorder()
        report = chaos_run(rec)
        assert len(rec.journeys) == report.routed
        assert all(
            j.outcome in ("served", "shed", "failed")
            for j in rec.journeys.values()
        )

    def test_every_served_request_names_a_critical_phase(self):
        """ISSUE acceptance: chaos-run completions name their phase."""
        rec = JourneyRecorder()
        report = chaos_run(rec)
        served = [j for j in rec.journeys.values() if j.outcome == "served"]
        assert served
        assert len(served) == sum(
            1 for o in report.outcomes if o.outcome == "served"
        )
        for journey in served:
            assert journey.critical_phase() in (
                PHASE_QUEUE,
                PHASE_FETCH,
                PHASE_COMPUTE,
            )
            assert sum(1 for a in journey.attempts if a.winner) == 1

    def test_journeys_match_driver_outcomes(self):
        rec = JourneyRecorder()
        report = chaos_run(rec)
        for outcome in report.outcomes:
            journey = rec.journeys[outcome.request_id]
            assert journey.outcome == outcome.outcome
            if outcome.outcome == "served":
                assert journey.latency == pytest.approx(outcome.latency)
                assert journey.ttft == pytest.approx(outcome.ttft)
            assert len(journey.attempts) == outcome.attempts

    def test_hedged_requests_have_one_winner(self):
        world = tiny_world()
        rec = JourneyRecorder()
        run_cluster(
            world,
            "fmoe",
            ClusterSpec(
                replicas=2,
                router="least-outstanding",
                resilience=ResilienceConfig(
                    hedge_after_seconds=0.01,
                    hedge_budget_fraction=1.0,
                ),
            ),
            requests=arrival_trace(world, n=8, gap=0.1),
            observers=[rec],
        )
        hedged = [j for j in rec.journeys.values() if j.hedged]
        assert hedged
        for journey in hedged:
            assert sum(1 for a in journey.attempts if a.winner) == 1

    def test_legacy_path_records_journeys_too(self):
        world = tiny_world()
        rec = JourneyRecorder()
        report = run_cluster(
            world,
            "fmoe",
            ClusterSpec(replicas=2),
            requests=arrival_trace(world, n=6),
            observers=[rec],
        )
        assert len(rec.journeys) == report.routed
        served = [j for j in rec.journeys.values() if j.outcome == "served"]
        assert served
        assert all(j.critical_phase() for j in served)

    def test_fetch_phase_reflects_engine_events(self):
        rec = JourneyRecorder()
        chaos_run(rec)
        counted = [
            j
            for j in rec.journeys.values()
            if j.outcome == "served"
            and (a := j.winner_attempt()) is not None
            and a.hits + a.misses > 0
        ]
        assert counted  # engine events reached the recorder


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        rec = JourneyRecorder()
        chaos_run(rec)
        path = rec.write_jsonl(tmp_path / "journeys.jsonl")
        loaded = read_journeys_jsonl(path)
        assert [j.to_dict() for j in loaded] == [
            j.to_dict() for j in rec.ordered()
        ]

    def test_render_names_phases_and_outcomes(self):
        rec = JourneyRecorder()
        chaos_run(rec)
        text = render_journeys(rec.ordered(), top=3)
        assert "slowest served requests" in text
        assert "phase breakdown" in text
        assert "queue" in text and "expert_fetch" in text

    def test_render_handles_empty_list(self):
        text = render_journeys([])
        assert "0 requests" in text
