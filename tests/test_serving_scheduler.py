"""Tests for online admission scheduling."""

import pytest

from repro.core.policy import FMoEPolicy
from repro.errors import ConfigError
from repro.moe.model import MoEModel
from repro.obs.telemetry import Telemetry
from repro.serving.engine import ServingEngine
from repro.serving.request import Request
from repro.serving.scheduler import (
    FCFSScheduler,
    SJFScheduler,
    run_scheduled,
)


def make_engine(tiny_config, small_hardware):
    model = MoEModel(tiny_config, seed=0)
    policy = FMoEPolicy(prefetch_distance=2)
    return ServingEngine(
        model,
        policy,
        cache_budget_bytes=12 * tiny_config.expert_bytes,
        hardware=small_hardware,
    )


class TestDisciplines:
    def test_fcfs_picks_earliest_arrival(self):
        pending = [
            Request(0, 0, 10, 2, arrival_time=3.0),
            Request(1, 0, 2, 2, arrival_time=1.0),
        ]
        assert FCFSScheduler().select(pending, 5.0).request_id == 1

    def test_sjf_picks_shortest_prompt(self):
        pending = [
            Request(0, 0, 10, 2, arrival_time=1.0),
            Request(1, 0, 2, 2, arrival_time=3.0),
        ]
        assert SJFScheduler().select(pending, 5.0).request_id == 1

    def test_ties_break_deterministically(self):
        pending = [
            Request(1, 0, 4, 2, arrival_time=1.0),
            Request(0, 0, 4, 2, arrival_time=1.0),
        ]
        assert FCFSScheduler().select(pending, 5.0).request_id == 0
        assert SJFScheduler().select(pending, 5.0).request_id == 0


class TestRunScheduled:
    def test_all_requests_served(self, tiny_config, small_hardware):
        engine = make_engine(tiny_config, small_hardware)
        requests = [
            Request(i, i % 2, 4 + i, 2, arrival_time=0.1 * i)
            for i in range(5)
        ]
        report = run_scheduled(engine, requests, FCFSScheduler())
        assert sorted(r.request_id for r in report.requests) == list(range(5))
        assert report.iterations > 0

    def test_no_request_starts_before_arrival(
        self, tiny_config, small_hardware
    ):
        engine = make_engine(tiny_config, small_hardware)
        requests = [
            Request(0, 0, 4, 2, arrival_time=0.0),
            Request(1, 0, 4, 2, arrival_time=100.0),
        ]
        report = run_scheduled(engine, requests, FCFSScheduler())
        late = next(r for r in report.requests if r.request_id == 1)
        assert late.start_time >= 100.0

    def test_sjf_prefers_short_jobs_under_backlog(
        self, tiny_config, small_hardware
    ):
        # All arrive at once: one long prompt and several short ones.
        requests = [Request(0, 0, 60, 4, arrival_time=0.0)] + [
            Request(i, 0, 4, 2, arrival_time=0.0) for i in range(1, 5)
        ]
        fcfs_report = run_scheduled(
            make_engine(tiny_config, small_hardware), requests, FCFSScheduler()
        )
        sjf_report = run_scheduled(
            make_engine(tiny_config, small_hardware), requests, SJFScheduler()
        )
        assert (
            sjf_report.e2e_latencies().mean()
            < fcfs_report.e2e_latencies().mean()
        )

    def test_telemetry_sees_every_dispatch(self, tiny_config, small_hardware):
        engine = make_engine(tiny_config, small_hardware)
        telemetry = Telemetry()
        engine.subscribe(telemetry)
        # Three arrive together, so the backlog is non-empty at first.
        requests = [
            Request(i, i % 2, 4 + i, 2, arrival_time=0.0 if i < 3 else 50.0)
            for i in range(5)
        ]
        run_scheduled(engine, requests, FCFSScheduler())
        assert telemetry.dispatches.value() == len(requests)
        dispatched = [
            i.args["request_id"]
            for i in telemetry.tracer.instants
            if i.name == "dispatch"
        ]
        assert sorted(dispatched) == list(range(len(requests)))
        assert telemetry.queue_depth.value() == 0

    def test_empty_trace_rejected(self, tiny_config, small_hardware):
        engine = make_engine(tiny_config, small_hardware)
        with pytest.raises(ConfigError):
            run_scheduled(engine, [], FCFSScheduler())


class TestIdleUntil:
    def test_advances_the_clock(self, tiny_config, small_hardware):
        engine = make_engine(tiny_config, small_hardware)
        engine.idle_until(7.5)
        assert engine.now == 7.5

    def test_never_moves_the_clock_backwards(
        self, tiny_config, small_hardware
    ):
        engine = make_engine(tiny_config, small_hardware)
        engine.idle_until(10.0)
        for earlier in (9.999, 0.0, -5.0):
            engine.idle_until(earlier)
            assert engine.now == 10.0
        engine.run([Request(0, 0, 4, 2)], batch_size=1)
        served_until = engine.now
        assert served_until > 10.0
        engine.idle_until(10.0)
        assert engine.now == served_until
