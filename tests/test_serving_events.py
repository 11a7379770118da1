"""Tests for structured event tracing."""

import pytest

from repro.core.policy import FMoEPolicy
from repro.moe.model import MoEModel
from repro.serving.engine import ServingEngine
from repro.serving.events import EventKind, EventRecorder
from repro.types import ExpertId


@pytest.fixture
def traced_run(tiny_config, tiny_world, small_hardware):
    _, traces, test = tiny_world
    policy = FMoEPolicy(prefetch_distance=2)
    engine = ServingEngine(
        MoEModel(tiny_config, seed=0),
        policy,
        cache_budget_bytes=8 * tiny_config.expert_bytes,
        hardware=small_hardware,
    )
    recorder = EventRecorder()
    engine.subscribe(recorder)
    policy.warm(traces)
    report = engine.run(test[:2])
    return recorder, report, tiny_config


class TestEventStream:
    def test_iteration_boundaries_paired(self, traced_run):
        recorder, report, _ = traced_run
        starts = recorder.of_kind(EventKind.ITERATION_START)
        ends = recorder.of_kind(EventKind.ITERATION_END)
        assert len(starts) == len(ends) == report.iterations

    def test_layer_starts_per_iteration(self, traced_run):
        recorder, report, config = traced_run
        layers = recorder.of_kind(EventKind.LAYER_START)
        assert len(layers) == report.iterations * config.num_layers

    def test_hit_miss_events_match_report(self, traced_run):
        recorder, report, _ = traced_run
        hits = recorder.of_kind(EventKind.EXPERT_HIT)
        misses = recorder.of_kind(EventKind.EXPERT_MISS)
        assert len(hits) == report.hits
        assert len(misses) == report.misses

    def test_timestamps_monotone(self, traced_run):
        recorder, _, _ = traced_run
        times = [e.time for e in recorder.events]
        assert times == sorted(times)

    def test_stall_and_load_details_positive(self, traced_run):
        recorder, _, _ = traced_run
        for kind in (EventKind.ONDEMAND_LOAD, EventKind.PREFETCH_STALL):
            for event in recorder.of_kind(kind):
                assert event.detail is not None and event.detail >= 0

    def test_evictions_recorded_under_pressure(self, traced_run):
        recorder, report, _ = traced_run
        # The 8-expert budget forces constant eviction.
        assert recorder.of_kind(EventKind.EVICTION)

    def test_timeline_rendering(self, traced_run):
        recorder, _, _ = traced_run
        lines = recorder.timeline()
        assert len(lines) == len(recorder)
        assert "iteration_start" in lines[0]

    def test_expert_filter(self, traced_run):
        recorder, _, _ = traced_run
        some_hit = recorder.of_kind(EventKind.EXPERT_HIT)
        if some_hit:
            expert = some_hit[0].expert
            events = list(recorder.iter_expert_events(expert))
            assert all(e.expert == expert for e in events)


class TestRecorderLimits:
    def test_max_events_cap(self):
        from repro.serving.events import Event

        recorder = EventRecorder(max_events=3)
        with pytest.warns(RuntimeWarning, match="EventRecorder full"):
            for i in range(10):
                recorder.emit(
                    Event(EventKind.EXPERT_HIT, float(i), 0, 0, ExpertId(0, 0))
                )
        assert len(recorder) == 3
        assert recorder.dropped == 7

    def test_drop_warning_fires_once(self):
        from repro.serving.events import Event

        recorder = EventRecorder(max_events=1)
        recorder.emit(Event(EventKind.EXPERT_HIT, 0.0, 0, 0, ExpertId(0, 0)))
        with pytest.warns(RuntimeWarning) as caught:
            for i in range(5):
                recorder.emit(
                    Event(
                        EventKind.EXPERT_HIT, float(i), 0, 0, ExpertId(0, 0)
                    )
                )
        assert len(caught) == 1
        assert recorder.dropped == 5

    def test_event_dict_round_trip(self):
        from repro.serving.events import Event

        event = Event(
            EventKind.ONDEMAND_LOAD, 1.5, 3, 2, ExpertId(2, 7), detail=0.25
        )
        assert Event.from_dict(event.to_dict()) == event

    def test_disabled_by_default(
        self, tiny_config, tiny_world, small_hardware
    ):
        _, traces, test = tiny_world
        policy = FMoEPolicy(prefetch_distance=2)
        engine = ServingEngine(
            MoEModel(tiny_config, seed=0),
            policy,
            cache_budget_bytes=8 * tiny_config.expert_bytes,
            hardware=small_hardware,
        )
        policy.warm(traces)
        engine.run(test[:1])  # no recorder attached: must not crash
