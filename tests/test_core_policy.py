"""Tests for the assembled FMoEPolicy."""

import pytest

from repro.core.policy import FMoEPolicy
from repro.errors import ConfigError
from repro.serving.engine import ServingEngine


def make_engine(model, policy, hardware, budget_experts=16):
    return ServingEngine(
        model,
        policy,
        cache_budget_bytes=budget_experts * model.config.expert_bytes,
        hardware=hardware,
    )


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FMoEPolicy(prefetch_distance=0)
        with pytest.raises(ConfigError):
            FMoEPolicy(store_capacity=0)
        with pytest.raises(ConfigError):
            FMoEPolicy(max_prefetch_factor=0.5)
        with pytest.raises(ConfigError):
            FMoEPolicy(use_semantic=False, use_trajectory=False)
        with pytest.raises(ConfigError):
            FMoEPolicy(eviction_algorithm="arc")

    def test_warm_before_attach_raises(self):
        with pytest.raises(ConfigError):
            FMoEPolicy().warm([])


class TestWarmAndServe:
    def test_warm_fills_store(self, tiny_model, tiny_world, small_hardware):
        model, traces, _ = tiny_world
        policy = FMoEPolicy(store_capacity=64)
        make_engine(tiny_model, policy, small_hardware)
        policy.warm(traces)
        expected = min(64, sum(len(t.iteration_maps) for t in traces))
        assert len(policy.store) == expected

    def test_serving_records_similarity_scores(
        self, tiny_model, tiny_world, small_hardware
    ):
        _, traces, test = tiny_world
        policy = FMoEPolicy(prefetch_distance=2)
        engine = make_engine(tiny_model, policy, small_hardware)
        policy.warm(traces)
        engine.run(test[:2])
        assert policy.semantic_score_log
        assert policy.trajectory_score_log
        assert -1.0 <= policy.mean_semantic_score() <= 1.0
        assert -1.0 <= policy.mean_trajectory_score() <= 1.0

    def test_online_updates_grow_store(
        self, tiny_model, tiny_world, small_hardware
    ):
        _, _, test = tiny_world
        policy = FMoEPolicy(prefetch_distance=2)
        engine = make_engine(tiny_model, policy, small_hardware)
        assert len(policy.store) == 0
        engine.run(test[:2])
        total_iterations = sum(r.total_iterations for r in test[:2])
        assert len(policy.store) == total_iterations

    def test_online_updates_can_be_disabled(
        self, tiny_model, tiny_world, small_hardware
    ):
        _, _, test = tiny_world
        policy = FMoEPolicy(prefetch_distance=2, update_store_online=False)
        engine = make_engine(tiny_model, policy, small_hardware)
        engine.run(test[:2])
        assert len(policy.store) == 0

    def test_cold_store_serves_without_prefetch(
        self, tiny_model, tiny_world, small_hardware
    ):
        """First request with an empty store must still complete."""
        _, _, test = tiny_world
        policy = FMoEPolicy(prefetch_distance=2, update_store_online=False)
        engine = make_engine(tiny_model, policy, small_hardware)
        report = engine.run(test[:1])
        assert len(report.requests) == 1
        assert report.misses > 0

    def test_warmed_beats_cold(self, tiny_world, small_hardware, tiny_config):
        from repro.moe.model import MoEModel

        model, traces, test = tiny_world
        cold = FMoEPolicy(prefetch_distance=2, update_store_online=False)
        engine = make_engine(
            MoEModel(tiny_config, seed=0), cold, small_hardware
        )
        cold_report = engine.run(test[:4])
        warm_policy = FMoEPolicy(prefetch_distance=2)
        engine = make_engine(
            MoEModel(tiny_config, seed=0), warm_policy, small_hardware
        )
        warm_policy.warm(traces)
        warm_report = engine.run(test[:4])
        assert warm_report.hit_rate > cold_report.hit_rate

    def test_trajectory_only_mode(self, tiny_model, tiny_world, small_hardware):
        _, traces, test = tiny_world
        policy = FMoEPolicy(prefetch_distance=2, use_semantic=False)
        engine = make_engine(tiny_model, policy, small_hardware)
        policy.warm(traces)
        report = engine.run(test[:2])
        assert not policy.semantic_score_log
        assert policy.trajectory_score_log
        assert report.activations > 0

    def test_semantic_only_mode_covers_all_layers(
        self, tiny_model, tiny_world, small_hardware
    ):
        _, traces, test = tiny_world
        policy = FMoEPolicy(prefetch_distance=2, use_trajectory=False)
        engine = make_engine(tiny_model, policy, small_hardware)
        policy.warm(traces)
        report = engine.run(test[:2])
        assert policy.semantic_score_log
        assert not policy.trajectory_score_log
        assert report.hit_rate > 0.0

    def test_fixed_threshold_mode(self, tiny_model, tiny_world, small_hardware):
        _, traces, test = tiny_world
        policy = FMoEPolicy(prefetch_distance=2, dynamic_threshold=False)
        engine = make_engine(tiny_model, policy, small_hardware)
        policy.warm(traces)
        report = engine.run(test[:2])
        assert report.activations > 0

    @pytest.mark.parametrize("algorithm", ["lru", "lfu", "fmoe"])
    def test_eviction_algorithms_run(
        self, tiny_model, tiny_world, small_hardware, algorithm
    ):
        _, traces, test = tiny_world
        policy = FMoEPolicy(
            prefetch_distance=2, eviction_algorithm=algorithm
        )
        engine = make_engine(
            tiny_model, policy, small_hardware, budget_experts=8
        )
        policy.warm(traces)
        report = engine.run(test[:2])
        assert report.activations > 0

    def test_breakdown_contains_fmoe_operations(
        self, tiny_model, tiny_world, small_hardware
    ):
        _, traces, test = tiny_world
        policy = FMoEPolicy(prefetch_distance=2)
        engine = make_engine(tiny_model, policy, small_hardware)
        policy.warm(traces)
        report = engine.run(test[:2])
        breakdown = report.breakdown
        assert breakdown.sync["context_collect"] > 0
        assert breakdown.asynchronous["map_match"] > 0
        assert breakdown.asynchronous["map_update"] > 0
