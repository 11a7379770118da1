"""Fleet time-series: cadence, windowing, export, and driver purity.

Covers the :class:`~repro.obs.timeseries.FleetSeries` cadence machinery
(catch-up over quiet stretches, the bounded window with its drop
counter), validation, JSONL/CSV round-trips, and the integration with
real cluster runs — including the purity requirement that sampling a
half-open-eligible breaker never transitions it.
"""

from __future__ import annotations

import csv

import pytest

from repro.cluster import ClusterSpec, ResilienceConfig, run_cluster
from repro.cluster.resilience import (
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.errors import TelemetryError
from repro.obs import FleetSeries, read_fleet_jsonl
from repro.obs.timeseries import SAMPLE_FIELDS
from repro.serving.faults import ClusterFaultConfig, ReplicaCrash

from tests._cluster_testkit import arrival_trace, tiny_world


class TestValidation:
    def test_rejects_bad_interval(self):
        with pytest.raises(TelemetryError):
            FleetSeries(interval_seconds=0.0)

    def test_rejects_negative_window(self):
        with pytest.raises(TelemetryError):
            FleetSeries(max_samples=-1)


class _StubReplica:
    def __init__(self, replica_id):
        self.replica_id = replica_id
        self.retired = False

        class _Pool:
            cache_budget_bytes = 100

            def used_bytes(self):
                return 40

        class _Engine:
            pool = _Pool()

        class _Report:
            hit_rate = 0.5

        self.engine = _Engine()
        self.report = _Report()

    def outstanding_requests(self, now):
        return 2


class _StubDriver:
    def __init__(self, n=1):
        self.replicas = [_StubReplica(i) for i in range(n)]

    def breaker_for(self, replica_id):
        return None

    def peek_rung(self, now):
        return 0


class TestCadence:
    def test_first_call_samples_immediately(self):
        series = FleetSeries(interval_seconds=1.0)
        assert series.maybe_sample(5.0, _StubDriver()) == 1
        assert series.samples[0].time == 5.0

    def test_below_cadence_adds_nothing(self):
        series = FleetSeries(interval_seconds=1.0)
        series.maybe_sample(0.0, _StubDriver())
        assert series.maybe_sample(0.5, _StubDriver()) == 0
        assert len(series) == 1

    def test_catch_up_fills_missed_ticks(self):
        series = FleetSeries(interval_seconds=1.0)
        series.maybe_sample(0.0, _StubDriver())
        added = series.maybe_sample(3.5, _StubDriver())
        assert added == 3
        assert [s.time for s in series.samples] == [0.0, 1.0, 2.0, 3.0]

    def test_window_bounds_memory_and_counts_drops(self):
        series = FleetSeries(interval_seconds=1.0, max_samples=2)
        driver = _StubDriver()
        for t in (0.0, 1.0, 2.0, 3.0):
            series.maybe_sample(t, driver)
        assert len(series) == 2
        assert series.dropped == 2
        assert [s.time for s in series.samples] == [2.0, 3.0]

    def test_multi_replica_sample_rows(self):
        series = FleetSeries(interval_seconds=1.0)
        assert series.sample(0.0, _StubDriver(n=3)) == 3
        assert {s.replica_id for s in series.samples} == {0, 1, 2}


class TestBreakerPeekPurity:
    def test_peek_reports_half_open_without_transitioning(self):
        config = ResilienceConfig(
            breaker_min_samples=1,
            breaker_failure_threshold=0.5,
            breaker_open_seconds=1.0,
        )
        breaker = CircuitBreaker(config)
        breaker.record(False, 0.0)
        assert breaker.state(0.0) == BREAKER_OPEN
        # Past the open window: peek sees half-open ...
        assert breaker.peek(5.0) == BREAKER_HALF_OPEN
        # ... but the stored state is untouched (no transition fired).
        assert breaker._state == BREAKER_OPEN
        assert breaker.peek(0.5) == BREAKER_OPEN


def observed_run(series: FleetSeries):
    world = tiny_world()
    return run_cluster(
        world,
        "fmoe",
        ClusterSpec(
            replicas=2,
            router="least-outstanding",
            resilience=ResilienceConfig(),
        ),
        requests=arrival_trace(world, n=8, gap=0.5),
        cluster_faults=ClusterFaultConfig(
            crashes=(ReplicaCrash(time=0.1, replica=0, restart_delay=1.0),)
        ),
        observers=[series],
    )


class TestClusterIntegration:
    def test_samples_cover_the_run_window(self):
        series = FleetSeries(interval_seconds=0.5)
        observed_run(series)
        assert len(series) > 0
        times = [s.time for s in series.samples]
        assert times == sorted(times)
        # The final quiesce sample captures the drained fleet.
        assert series.samples[-1].queue_depth == 0

    def test_sample_fields_are_populated(self):
        series = FleetSeries(interval_seconds=0.5)
        observed_run(series)
        # Crash + restart spawns a replacement replica id mid-run.
        assert {s.replica_id for s in series.samples} >= {0, 1}
        for sample in series.samples:
            assert sample.queue_depth >= 0
            assert sample.breaker_state in ("closed", "open", "half-open")
            assert 0 <= sample.hit_rate <= 1
            assert 0 <= sample.vram_used_bytes <= sample.vram_budget_bytes

    def test_legacy_path_samples_too(self):
        world = tiny_world()
        series = FleetSeries(interval_seconds=0.5)
        run_cluster(
            world,
            "fmoe",
            ClusterSpec(replicas=2),
            requests=arrival_trace(world, n=6),
            observers=[series],
        )
        assert len(series) > 0
        # No resilience layer: breaker state column is blank.
        assert all(s.breaker_state == "" for s in series.samples)


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        series = FleetSeries(interval_seconds=0.5)
        observed_run(series)
        path = series.write_jsonl(tmp_path / "fleet.jsonl")
        loaded = read_fleet_jsonl(path)
        assert loaded == list(series.samples)

    def test_csv_has_fixed_header(self, tmp_path):
        series = FleetSeries(interval_seconds=0.5)
        observed_run(series)
        path = series.write_csv(tmp_path / "fleet.csv")
        with path.open() as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == SAMPLE_FIELDS
            rows = list(reader)
        assert len(rows) == len(series)
