"""Tests for the shared experiment harness."""

import pytest

from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentConfig,
    SYSTEM_NAMES,
    build_world,
    make_policy,
    run_system,
)
from repro.moe.config import MIXTRAL_8X7B


@pytest.fixture(scope="module")
def small_world():
    return build_world(
        ExperimentConfig(num_requests=10, num_test_requests=2)
    )


class TestExperimentConfig:
    def test_budget_from_fraction(self):
        config = ExperimentConfig(cache_fraction=0.25)
        assert config.resolve_budget(MIXTRAL_8X7B) == int(
            0.25 * MIXTRAL_8X7B.total_expert_bytes
        )

    def test_explicit_budget_wins(self):
        config = ExperimentConfig(cache_budget_bytes=123456789)
        assert config.resolve_budget(MIXTRAL_8X7B) == 123456789

    def test_default_budget_is_working_set_multiple(self):
        config = ExperimentConfig()
        working_set = (
            MIXTRAL_8X7B.num_layers
            * MIXTRAL_8X7B.top_k
            * MIXTRAL_8X7B.expert_bytes
        )
        expected = int(
            config.cache_working_set_multiplier * working_set
        )
        assert config.resolve_budget(MIXTRAL_8X7B) == expected

    def test_default_budget_floor_one_expert_per_gpu(self):
        config = ExperimentConfig(cache_working_set_multiplier=1e-9)
        budget = config.resolve_budget(MIXTRAL_8X7B)
        assert budget == config.hardware.num_gpus * MIXTRAL_8X7B.expert_bytes

    def test_with_returns_modified_copy(self):
        base = ExperimentConfig()
        changed = base.with_(batch_size=4)
        assert changed.batch_size == 4
        assert base.batch_size == 1

    @pytest.mark.parametrize(
        "field", ["prefetch_distance", "store_capacity", "batch_size"]
    )
    def test_counts_below_one_are_config_errors(self, field):
        """Construction and ``with_`` both refuse a count below 1, so a
        malformed config never reaches a world."""
        assert getattr(ExperimentConfig(**{field: 1}), field) == 1
        for value in (0, -1):
            with pytest.raises(ConfigError, match=field):
                ExperimentConfig(**{field: value})
            with pytest.raises(ConfigError, match=field):
                ExperimentConfig().with_(**{field: value})


class TestBuildWorld:
    def test_split_sizes(self, small_world):
        assert len(small_world.warm_traces) == 7
        assert len(small_world.test_requests) == 2

    def test_fresh_models_share_routing(self, small_world):
        a = small_world.fresh_model()
        b = small_world.fresh_model()
        import numpy as np

        assert np.allclose(
            a.gate.archetype_logits(0, 0), b.gate.archetype_logits(0, 0)
        )


class TestMakePolicy:
    @pytest.mark.parametrize(
        "name", list(SYSTEM_NAMES) + ["no-offload", "oracle"]
    )
    def test_all_systems_instantiable(self, name):
        policy = make_policy(name, ExperimentConfig())
        assert policy.name == name

    def test_unknown_system(self):
        with pytest.raises(ConfigError):
            make_policy("vllm", ExperimentConfig())


class TestRunSystem:
    def test_reports_are_complete(self, small_world):
        report = run_system(small_world, "fmoe")
        assert report.policy_name == "fmoe"
        assert len(report.requests) == 2
        assert report.activations > 0
        assert report.mean_ttft() > 0

    def test_no_offload_budget_override(self, small_world):
        report = run_system(small_world, "no-offload")
        assert report.hit_rate == 1.0

    def test_custom_budget(self, small_world):
        budget = 24 * small_world.model_config.expert_bytes
        report = run_system(small_world, "fmoe", cache_budget_bytes=budget)
        assert report.peak_cache_bytes <= budget
