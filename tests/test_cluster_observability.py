"""The observability plane end-to-end: neutrality, traces, inspection.

Three contracts from the observability PR:

- **Telemetry neutrality** — attaching journeys / fleet series to a run
  leaves the serialized ClusterReport byte-identical (including against
  the committed pre-PR goldens); an SLO tracker adds exactly the ``slo``
  key and nothing else.
- **Golden chaos trace** — a 2-replica crash + hedge run exports a
  Chrome trace where the crash/restart are visible as cluster-lane
  instants and the hedged pair as linked spans (flow arrows + a
  cancelled loser span).
- **Report inspection** — ``repro inspect`` renders ClusterReport JSON
  (per-replica table, resilience counters, SLO section) and the
  resilience metrics satellite exports its counters/gauges.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cluster import (
    ClusterSpec,
    ResilienceConfig,
    cluster_report_to_json,
    run_cluster,
)
from repro.obs import (
    FleetSeries,
    JourneyRecorder,
    MetricsObserver,
    MetricsRegistry,
    SLOTracker,
    TracerObserver,
)
from repro.obs.inspect import (
    inspect_cluster_report,
    inspect_path,
    is_cluster_report,
)
from repro.obs.trace import CLUSTER_LANE, Tracer, replica_lane
from repro.serving.faults import ClusterFaultConfig, ReplicaCrash
from repro.workloads.traffic import materialize_traffic

from tests._cluster_testkit import arrival_trace, tiny_world
from tests.golden.storm import (
    STORM_GOLDEN_PATH,
    compute_storm_report_dict,
    load_storm_golden,
    storm_two_tenant_traffic,
)

GOLDEN = Path(__file__).parent / "golden"

CRASH = ClusterFaultConfig(
    crashes=(ReplicaCrash(time=0.1, replica=0, restart_delay=1.0),)
)


def chaos_run(**extra):
    """2-replica crash + hedge storm; hedges are aggressive on purpose."""
    world = tiny_world()
    return run_cluster(
        world,
        "fmoe",
        ClusterSpec(
            replicas=2,
            router="least-outstanding",
            resilience=ResilienceConfig(
                hedge_after_seconds=0.01, hedge_budget_fraction=1.0
            ),
        ),
        requests=arrival_trace(world, n=10, gap=0.1),
        cluster_faults=CRASH,
        **extra,
    )


# --------------------------------------------------------------------- #
# Telemetry neutrality: observers never perturb the run
# --------------------------------------------------------------------- #


class TestTelemetryNeutrality:
    def test_golden_affinity_report_with_observers_attached(self):
        """The pre-PR golden byte-parity holds with observers attached."""
        world = tiny_world()
        report = run_cluster(
            world,
            "fmoe",
            ClusterSpec(replicas=2, router="semantic-affinity"),
            requests=arrival_trace(world, n=8),
            validate=True,
            observers=[JourneyRecorder(), FleetSeries(interval_seconds=0.5)],
        )
        golden = (GOLDEN / "cluster_tiny_affinity.json").read_text()
        assert cluster_report_to_json(report) == golden

    def test_chaos_run_byte_identical_with_observers(self):
        bare = cluster_report_to_json(chaos_run())
        observed = cluster_report_to_json(
            chaos_run(
                observers=[
                    JourneyRecorder(),
                    FleetSeries(interval_seconds=0.25),
                ]
            )
        )
        assert observed == bare

    def test_slo_tracker_adds_exactly_the_slo_key(self):
        bare = json.loads(cluster_report_to_json(chaos_run()))
        tracked = json.loads(
            cluster_report_to_json(chaos_run(observers=[SLOTracker()]))
        )
        slo = tracked.pop("slo")
        assert tracked == bare
        assert slo["observations"] > 0

    def test_legacy_path_byte_identical_with_observers(self):
        world = tiny_world()

        def run(**extra):
            return cluster_report_to_json(
                run_cluster(
                    world,
                    "fmoe",
                    ClusterSpec(replicas=2),
                    requests=arrival_trace(world, n=6),
                    **extra,
                )
            )

        assert run(
            observers=[JourneyRecorder(), FleetSeries(interval_seconds=0.5)]
        ) == run()

    def test_validate_monitors_compose_with_journeys(self):
        """The journey sink and the validate monitors both see the events."""
        rec = JourneyRecorder()
        # validate=True raises ValidationError on any invariant breach,
        # so completing at all proves the monitors ran clean.
        report = chaos_run(observers=[rec], validate=True)
        assert report.routed == 10
        served = [j for j in rec.journeys.values() if j.outcome == "served"]
        assert any(
            (a := j.winner_attempt()) is not None and a.hits + a.misses > 0
            for j in served
        )


class TestTaggedStormNeutrality:
    """Every observer on the tagged, resilience-configured storm golden."""

    def observed_storm(self, *extra):
        tracer, registry = Tracer(), MetricsRegistry()
        journeys = JourneyRecorder()
        payload = compute_storm_report_dict(
            validate=True,
            observers=[
                TracerObserver(tracer),
                MetricsObserver(registry),
                journeys,
                FleetSeries(interval_seconds=0.5),
                *extra,
            ],
        )
        # The observers really rode the run.
        routes = [i for i in tracer.instants if i.name == "route"]
        assert len(routes) == len(payload["resilience"]["dispatches"])
        assert len(journeys.journeys) == payload["routed"]
        shed = registry.counter("repro_cluster_resilience_shed_total")
        assert sum(shed.value(**dict(k)) for k in shed.label_keys()) == (
            payload["resilience"]["total_shed"]
        )
        return payload

    def test_report_byte_identical_to_golden(self):
        payload = self.observed_storm()
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert text == STORM_GOLDEN_PATH.read_text()

    def test_slo_tracker_adds_only_slo_and_tier_attainment(self):
        deadline = 30.0
        payload = self.observed_storm(SLOTracker(deadline_seconds=deadline))
        golden = load_storm_golden()
        assert payload.pop("slo")["observations"] == golden["routed"]
        tier_of = {
            r.request_id: r.tier
            for r in materialize_traffic(storm_two_tenant_traffic())
        }
        for name, tier in payload["tenancy"]["tiers"].items():
            good = sum(
                1
                for o in payload["resilience"]["outcomes"]
                if tier_of[o["request_id"]] == name
                and o["outcome"] == "served"
                and o["latency"] <= deadline
            )
            assert tier["slo_attainment"] == good / tier["offered"]
            tier["slo_attainment"] = golden["tenancy"]["tiers"][name][
                "slo_attainment"
            ]
        assert payload == golden


# --------------------------------------------------------------------- #
# Golden chaos trace: crash + hedge visible in the Chrome export
# --------------------------------------------------------------------- #


class TestGoldenChaosTrace:
    def run_traced(self):
        tracer = Tracer()
        report = chaos_run(observers=[TracerObserver(tracer)])
        return report, tracer, tracer.to_chrome()["traceEvents"]

    def test_crash_and_restart_are_cluster_lane_instants(self):
        report, _, events = self.run_traced()
        assert report.resilience.crashes == 1
        instants = [
            e for e in events if e.get("ph") == "i" and e["tid"] == CLUSTER_LANE
        ]
        names = [e["name"] for e in instants]
        assert "scale:crash" in names
        assert "scale:restart" in names
        crash = next(e for e in instants if e["name"] == "scale:crash")
        assert crash["args"]["replica"] == 0

    def test_hedged_pair_linked_by_flow_arrows(self):
        report, _, events = self.run_traced()
        assert report.resilience.hedges > 0
        starts = [e for e in events if e.get("ph") == "s"]
        finishes = [e for e in events if e.get("ph") == "f"]
        assert starts and finishes
        # Flow halves pair up by id and bind the two replica lanes.
        by_id = {e["id"] for e in starts}
        assert by_id == {e["id"] for e in finishes}
        for fin in finishes:
            assert fin["bp"] == "e"
            assert fin["name"] == "hedge"
        lanes = {e["tid"] for e in starts} | {e["tid"] for e in finishes}
        assert lanes <= {replica_lane(0), replica_lane(1), replica_lane(2)}

    def test_hedge_loser_span_marked_cancelled(self):
        report, _, events = self.run_traced()
        losers = [
            e
            for e in events
            if e.get("ph") == "X" and "hedge loser" in e.get("name", "")
        ]
        # Exactly one loser span per hedge where both copies served.
        assert len(losers) == report.resilience.hedges_cancelled + sum(
            1 for o in report.outcomes if o.hedge_won
        )
        for span in losers:
            assert span["args"]["role"] == "cancelled"

    def test_served_spans_land_on_replica_lanes(self):
        report, tracer, _ = self.run_traced()
        serve_spans = [
            s
            for s in tracer.spans
            if s.tid >= replica_lane(0) and "hedge loser" not in s.name
        ]
        # A crash can retract an already-drawn serve, so spans may exceed
        # final served outcomes — but every served request has one.
        span_requests = {s.name for s in serve_spans}
        served = [o for o in report.outcomes if o.outcome == "served"]
        assert len(serve_spans) >= len(served)
        for outcome in served:
            assert f"request {outcome.request_id}" in span_requests


# --------------------------------------------------------------------- #
# Resilience events as metrics (satellite 1)
# --------------------------------------------------------------------- #


class TestResilienceMetrics:
    def test_counters_and_gauges_exported(self):
        registry = MetricsRegistry()
        report = chaos_run(observers=[MetricsObserver(registry)])
        res = report.resilience

        crashes = registry.counter("repro_cluster_crashes_total")
        assert crashes.value(replica="0") == res.crashes
        restarts = registry.counter("repro_cluster_restarts_total")
        total_restarts = sum(
            restarts.value(**dict(k)) for k in restarts.label_keys()
        )
        assert total_restarts == res.restarts

        # The hedge counter tallies resolved hedge copies (most hedges
        # fizzle when no second replica frees up in time).
        hedges = registry.counter("repro_cluster_hedges_total")
        total_hedges = sum(
            hedges.value(**dict(k)) for k in hedges.label_keys()
        )
        assert 0 < total_hedges <= res.hedges

    def test_hedge_results_labelled(self):
        registry = MetricsRegistry()
        report = chaos_run(observers=[MetricsObserver(registry)])
        hedges = registry.counter("repro_cluster_hedges_total")
        results = {dict(k)["result"] for k in hedges.label_keys()}
        assert results <= {"win", "loss", "cancelled"}
        wins = sum(
            hedges.value(**dict(k))
            for k in hedges.label_keys()
            if dict(k)["result"] == "win"
        )
        assert wins == report.resilience.hedge_wins

    def test_retry_dispatch_counter(self):
        registry = MetricsRegistry()
        report = chaos_run(observers=[MetricsObserver(registry)])
        retries = registry.counter("repro_cluster_retry_dispatches_total")
        total = sum(
            retries.value(**dict(k)) for k in retries.label_keys()
        )
        assert total == report.resilience.retry_dispatches

    def test_breaker_state_gauge_tracks_transitions(self):
        world = tiny_world()
        registry = MetricsRegistry()
        report = run_cluster(
            world,
            "fmoe",
            ClusterSpec(
                replicas=2,
                router="least-outstanding",
                resilience=ResilienceConfig(
                    breaker_min_samples=2,
                    breaker_failure_threshold=0.5,
                    breaker_open_seconds=5.0,
                ),
            ),
            requests=arrival_trace(world, n=8, gap=0.3),
            cluster_faults=CRASH,
            observers=[MetricsObserver(registry)],
        )
        if report.resilience.breaker_opens:
            gauge = registry.gauge("repro_cluster_breaker_state")
            assert gauge.label_keys()

    def test_degradation_rung_gauge_set(self):
        registry = MetricsRegistry()
        chaos_run(observers=[MetricsObserver(registry)])
        gauge = registry.gauge("repro_cluster_degradation_rung")
        assert gauge.value() >= 0


# --------------------------------------------------------------------- #
# ClusterReport inspection (satellite 2)
# --------------------------------------------------------------------- #


class TestInspectClusterReport:
    def test_detects_cluster_reports(self):
        payload = json.loads(cluster_report_to_json(chaos_run()))
        assert is_cluster_report(payload)
        assert not is_cluster_report({"traceEvents": []})
        assert not is_cluster_report({"routed": 1})
        assert not is_cluster_report([1, 2])

    def test_round_trip_through_inspect_path(self, tmp_path):
        report = chaos_run(observers=[SLOTracker()])
        path = tmp_path / "cluster_report.json"
        path.write_text(cluster_report_to_json(report))
        text = inspect_path(path)
        assert "per-replica summary" in text
        assert "resilience counters" in text
        assert "SLO burn-rate summary" in text
        assert f"routed={report.routed}" in text
        assert "crashed" in text  # replica 0's status column

    def test_counters_match_the_report(self):
        report = chaos_run()
        payload = json.loads(cluster_report_to_json(report))
        text = inspect_cluster_report(payload)
        res = report.resilience
        for name, value in (
            ("crashes", res.crashes),
            ("restarts", res.restarts),
            ("retry_dispatches", res.retry_dispatches),
        ):
            line = next(
                ln for ln in text.splitlines() if ln.startswith(name)
            )
            assert line.split()[-1] == str(value)

    def test_legacy_report_renders_without_resilience(self):
        world = tiny_world()
        report = run_cluster(
            world,
            "fmoe",
            ClusterSpec(replicas=2),
            requests=arrival_trace(world, n=4),
        )
        text = inspect_cluster_report(
            json.loads(cluster_report_to_json(report))
        )
        assert "per-replica summary" in text
        assert "resilience counters" not in text

    def test_trace_files_still_inspectable(self, tmp_path):
        """The trace branch of inspect_path is untouched."""
        tracer = Tracer()
        chaos_run(observers=[TracerObserver(tracer)])
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(tracer.to_chrome()))
        assert "slowest iterations" in inspect_path(path)
