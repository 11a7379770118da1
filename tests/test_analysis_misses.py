"""Tests for the miss-cause taxonomy."""

import pytest

from repro.analysis.misses import MissBreakdown, classify_misses
from repro.serving.events import Event, EventKind, EventRecorder
from repro.types import ExpertId

E = ExpertId


def rec(*events):
    recorder = EventRecorder()
    for i, (kind, expert) in enumerate(events):
        recorder.emit(
            Event(kind=kind, time=float(i), iteration=0, layer=0, expert=expert)
        )
    return recorder


class TestClassification:
    def test_cold_miss(self):
        breakdown = classify_misses(
            rec(
                (EventKind.EXPERT_MISS, E(0, 0)),
                (EventKind.ONDEMAND_LOAD, E(0, 0)),
            )
        )
        assert breakdown.cold == 1
        assert breakdown.total_misses == 1

    def test_unpredicted_miss(self):
        breakdown = classify_misses(
            rec(
                (EventKind.EXPERT_MISS, E(0, 0)),  # cold
                (EventKind.ONDEMAND_LOAD, E(0, 0)),
                (EventKind.EXPERT_MISS, E(0, 0)),  # seen, not evicted
                (EventKind.ONDEMAND_LOAD, E(0, 0)),
            )
        )
        assert breakdown.cold == 1
        assert breakdown.unpredicted == 1

    def test_capacity_miss(self):
        breakdown = classify_misses(
            rec(
                (EventKind.EXPERT_HIT, E(0, 0)),
                (EventKind.EVICTION, E(0, 0)),
                (EventKind.EXPERT_MISS, E(0, 0)),
                (EventKind.ONDEMAND_LOAD, E(0, 0)),
            )
        )
        assert breakdown.capacity == 1
        assert breakdown.hits == 1

    def test_late_miss_via_stall(self):
        breakdown = classify_misses(
            rec(
                (EventKind.EXPERT_MISS, E(0, 0)),
                (EventKind.PREFETCH_STALL, E(0, 0)),
            )
        )
        assert breakdown.late == 1

    def test_miss_without_load_is_late(self):
        """Counted at gate, arrived before serving: a near-miss prefetch."""
        breakdown = classify_misses(rec((EventKind.EXPERT_MISS, E(0, 0))))
        assert breakdown.late == 1

    def test_eviction_of_unused_expert_is_not_capacity(self):
        breakdown = classify_misses(
            rec(
                (EventKind.EVICTION, E(0, 1)),  # never used
                (EventKind.EXPERT_MISS, E(0, 1)),
                (EventKind.ONDEMAND_LOAD, E(0, 1)),
            )
        )
        assert breakdown.cold == 1
        assert breakdown.capacity == 0

    def test_fractions_sum(self):
        breakdown = MissBreakdown(
            cold=1, late=2, capacity=3, unpredicted=4, hits=10
        )
        assert breakdown.total == 20
        assert sum(breakdown.fractions().values()) == pytest.approx(0.5)
        assert "hits=10" in breakdown.format()

    def test_empty(self):
        breakdown = classify_misses(EventRecorder())
        assert breakdown.total == 0
        assert breakdown.fractions()["cold"] == 0.0


class TestOnRealRun:
    def test_breakdown_matches_report(
        self, tiny_config, tiny_world, small_hardware
    ):
        from repro.core.policy import FMoEPolicy
        from repro.moe.model import MoEModel
        from repro.serving.engine import ServingEngine

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
        report = engine.run(test[:3])
        breakdown = classify_misses(recorder)
        assert breakdown.hits == report.hits
        assert breakdown.total_misses == report.misses
        assert breakdown.total == report.activations
