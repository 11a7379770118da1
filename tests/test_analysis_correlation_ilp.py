"""Tests for the correlation analysis (Fig. 8) and the §3.3 formulation."""

import pytest

from repro.analysis.correlation import similarity_hitrate_correlation
from repro.analysis.ilp import (
    activation_sequence,
    belady_min_misses,
    evaluate_cache_schedule,
    lp_lower_bound,
    ondemand_loading_latency,
)
from repro.errors import ConfigError
from repro.types import ExpertId
from repro.workloads.profiler import collect_history
from repro.workloads.split import warm_test_split

E = ExpertId


class TestCorrelation:
    def test_positive_correlation(self, tiny_model, tiny_requests):
        """Fig. 8: similarity predicts hit rate."""
        warm_reqs, test_reqs = warm_test_split(tiny_requests, 0.7, seed=5)
        warm = collect_history(tiny_model, warm_reqs)
        test = collect_history(tiny_model, test_reqs[:4])
        result = similarity_hitrate_correlation(
            tiny_model.config, warm, test, distance=2
        )
        # The tiny world gives few trajectory samples, so only the semantic
        # coefficient is statistically solid here; the full-scale positive
        # trajectory correlation is asserted in test_reproduction_claims.
        assert result.semantic_pearson > 0.15
        assert result.trajectory_pearson > -0.2
        assert result.semantic_samples > 0
        assert result.trajectory_samples > 0

    def test_invalid_distance(self, tiny_model):
        with pytest.raises(ConfigError):
            similarity_hitrate_correlation(
                tiny_model.config, [], [], distance=0
            )


class TestActivationSequence:
    def test_flattening(self, tiny_model, tiny_requests):
        traces = collect_history(tiny_model, tiny_requests[:2])
        sequence = activation_sequence(traces)
        L = tiny_model.config.num_layers
        total_iterations = sum(len(t.iteration_activated) for t in traces)
        assert len(sequence) == total_iterations * L
        assert all(isinstance(e, ExpertId) for group in sequence for e in group)


SIMPLE = [
    [E(0, 0)],
    [E(0, 1)],
    [E(0, 2)],
    [E(0, 0)],
    [E(0, 1)],
    [E(0, 2)],
]


class TestCacheSchedules:
    def test_lru_cyclic_pathology(self):
        """LRU with capacity 2 over a 3-item cycle misses every access."""
        assert evaluate_cache_schedule(SIMPLE, 2, "lru") == 6

    def test_belady_optimal_on_cycle(self):
        # MIN: 3 cold misses, then keeping {A,C} and {C,B} saves two hits.
        assert belady_min_misses(SIMPLE, 2) == 4

    def test_belady_never_worse_than_lru_lfu(self, tiny_model, tiny_requests):
        traces = collect_history(tiny_model, tiny_requests[:3])
        sequence = activation_sequence(traces)
        capacity = tiny_model.config.total_experts // 3
        optimal = belady_min_misses(sequence, capacity)
        assert optimal <= evaluate_cache_schedule(sequence, capacity, "lru")
        assert optimal <= evaluate_cache_schedule(sequence, capacity, "lfu")

    def test_infinite_capacity_only_cold_misses(self):
        assert belady_min_misses(SIMPLE, 100) == 3

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            evaluate_cache_schedule(SIMPLE, 2, "random")
        with pytest.raises(ConfigError):
            evaluate_cache_schedule(SIMPLE, 0, "lru")


class TestObjective:
    def test_latency_formula(self):
        assert ondemand_loading_latency(10, 0.011) == pytest.approx(0.11)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ondemand_loading_latency(-1, 0.01)
        with pytest.raises(ConfigError):
            ondemand_loading_latency(1, -0.01)


class TestLPLowerBound:
    def test_bound_below_belady(self):
        bound = lp_lower_bound(SIMPLE, 2)
        assert bound <= belady_min_misses(SIMPLE, 2) + 1e-6
        assert bound >= 3.0 - 1e-6  # at least the cold misses

    def test_bound_exact_without_pressure(self):
        bound = lp_lower_bound(SIMPLE, 3)
        assert bound == pytest.approx(3.0, abs=1e-6)

    def test_instance_size_guard(self):
        big = [[E(0, 0)]] * 1000
        with pytest.raises(ConfigError, match="too large"):
            lp_lower_bound(big, 2)

    def test_empty_sequence(self):
        assert lp_lower_bound([], 2) == 0.0

    def test_bound_on_real_traces(self, tiny_model, tiny_requests):
        traces = collect_history(tiny_model, tiny_requests[:1])
        # Singleton steps: the LP's simultaneous-residency constraint then
        # matches Belady's serial access model exactly.
        flat = [
            [e] for group in activation_sequence(traces)[:30] for e in group
        ]
        capacity = 6
        bound = lp_lower_bound(flat, capacity, max_steps=len(flat))
        assert bound <= belady_min_misses(flat, capacity) + 1e-6
