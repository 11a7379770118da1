"""Tests for the baseline offloading policies."""

import numpy as np
import pytest

from repro.baselines import (
    DeepSpeedPolicy,
    MixtralOffloadingPolicy,
    MoEInfinityPolicy,
    NoOffloadPolicy,
    OraclePolicy,
    ProMoEPolicy,
)
from repro.baselines.base import BasePolicy, LFUTracker, LRUTracker
from repro.errors import CapacityError, ConfigError
from repro.experiments.common import (
    POLICY_NAMES,
    ExperimentConfig,
    make_policy,
)
from repro.moe.model import MoEModel
from repro.serving.engine import ServingEngine
from repro.types import ExpertId

E = ExpertId


def make_engine(model, policy, hardware, budget_experts=16):
    return ServingEngine(
        model,
        policy,
        cache_budget_bytes=budget_experts * model.config.expert_bytes,
        hardware=hardware,
    )


def run_policy(policy, tiny_config, hardware, traces, test, budget=16):
    model = MoEModel(tiny_config, seed=0)
    engine = make_engine(model, policy, hardware, budget)
    policy.warm(traces)
    return engine.run(test)


class TestTrackers:
    def test_lru_priorities(self):
        lru = LRUTracker(10, 10)
        lru.touch(E(0, 0), 1.0)
        lru.touch(E(0, 1), 5.0)
        scores = lru.eviction_score_matrix(10.0)
        assert scores[0] > scores[1]
        # Never-touched experts are evicted first of all.
        assert scores[99] > scores[0]

    def test_lfu_priorities(self):
        lfu = LFUTracker(2, 2)
        for _ in range(3):
            lfu.touch(E(0, 0), 0.0)
        lfu.touch(E(0, 1), 0.0)
        scores = lfu.eviction_score_matrix(0.0)
        assert scores[1] > scores[0]
        assert lfu.frequency(E(0, 0)) == 3

    def test_base_policy_topk_helper(self):
        ids, priorities = BasePolicy.topk_block(
            2, np.array([0.1, 0.6, 0.3]), k=2
        )
        assert ids.tolist() == [2 * 3 + 1, 2 * 3 + 2]
        assert priorities.tolist() == [0.6, 0.3]


class TestNoOffload:
    def test_zero_misses(self, tiny_config, tiny_world, small_hardware):
        _, traces, test = tiny_world
        total = tiny_config.total_experts
        report = run_policy(
            NoOffloadPolicy(),
            tiny_config,
            small_hardware,
            traces,
            test[:3],
            budget=total + 2,
        )
        assert report.hit_rate == 1.0
        assert report.misses == 0

    def test_insufficient_budget_raises(self, tiny_config, small_hardware):
        model = MoEModel(tiny_config, seed=0)
        with pytest.raises(CapacityError, match="no-offload requires"):
            make_engine(model, NoOffloadPolicy(), small_hardware, 4)

    def test_never_evicts(self):
        with pytest.raises(CapacityError):
            NoOffloadPolicy().eviction_score_matrix(0.0)


class TestDeepSpeed:
    def test_streams_layers_on_critical_path(
        self, tiny_config, tiny_world, small_hardware
    ):
        _, traces, test = tiny_world
        report = run_policy(
            DeepSpeedPolicy(), tiny_config, small_hardware, traces, test[:2]
        )
        assert report.breakdown.sync["layer_stream"] > 0

    def test_no_prefetch_transfers(self, tiny_config, tiny_world, small_hardware):
        _, traces, test = tiny_world
        report = run_policy(
            DeepSpeedPolicy(), tiny_config, small_hardware, traces, test[:2]
        )
        assert "prefetch_transfer" not in report.breakdown.asynchronous


class TestMixtralOffloading:
    def test_blocking_speculative_prefetch(
        self, tiny_config, tiny_world, small_hardware
    ):
        _, traces, test = tiny_world
        report = run_policy(
            MixtralOffloadingPolicy(),
            tiny_config,
            small_hardware,
            traces,
            test[:2],
        )
        assert report.breakdown.sync.get("speculate", 0) > 0
        # Distance-1 blocking speculation yields a decent hit rate.
        assert report.hit_rate > 0.3

    def test_invalid_distance(self):
        with pytest.raises(ConfigError):
            MixtralOffloadingPolicy(prefetch_distance=0)


class TestMoEInfinity:
    def test_warm_builds_eams(self, tiny_config, tiny_world, small_hardware):
        _, traces, test = tiny_world
        policy = MoEInfinityPolicy(prefetch_distance=2)
        run_policy(policy, tiny_config, small_hardware, traces, test[:2])
        assert len(policy._eams) >= len(traces)

    def test_online_requests_contribute_eams(
        self, tiny_config, tiny_world, small_hardware
    ):
        _, _, test = tiny_world
        policy = MoEInfinityPolicy(prefetch_distance=2)
        run_policy(policy, tiny_config, small_hardware, [], test[:3])
        # Each completed request (except the last, flushed lazily) is stored.
        assert len(policy._eams) >= 2

    def test_matrix_cap(self, tiny_config, tiny_world, small_hardware):
        _, traces, test = tiny_world
        policy = MoEInfinityPolicy(prefetch_distance=2, max_matrices=3)
        run_policy(policy, tiny_config, small_hardware, traces, test[:2])
        assert len(policy._eams) <= 3

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            MoEInfinityPolicy(prefetch_distance=0)
        with pytest.raises(ConfigError):
            MoEInfinityPolicy(prefetch_width_factor=0.5)


class TestProMoE:
    def test_async_speculation(self, tiny_config, tiny_world, small_hardware):
        _, traces, test = tiny_world
        report = run_policy(
            ProMoEPolicy(prefetch_distance=2),
            tiny_config,
            small_hardware,
            traces,
            test[:2],
        )
        assert report.breakdown.sync.get("predict", 0) > 0
        assert report.hit_rate > 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            ProMoEPolicy(prefetch_distance=0)
        with pytest.raises(ConfigError):
            ProMoEPolicy(predictor_quality=0.0)


class TestOracle:
    def test_oracle_dominates_blind_baseline(
        self, tiny_config, tiny_world, small_hardware
    ):
        _, traces, test = tiny_world
        oracle = run_policy(
            OraclePolicy(prefetch_distance=2),
            tiny_config,
            small_hardware,
            traces,
            test[:4],
        )
        blind = run_policy(
            DeepSpeedPolicy(), tiny_config, small_hardware, traces, test[:4]
        )
        assert oracle.hit_rate > blind.hit_rate

    def test_invalid_distance(self):
        with pytest.raises(ConfigError):
            OraclePolicy(prefetch_distance=0)


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_zero_prefetch_distance_is_a_config_error(name):
    """The config itself refuses a prefetch distance of 0 with
    ``ConfigError``, so no system is built with it, whether or not it
    takes the distance; the smallest valid distance builds every one."""
    config = ExperimentConfig()
    make_policy(name, config.with_(prefetch_distance=1))
    with pytest.raises(ConfigError, match="prefetch_distance"):
        config.with_(prefetch_distance=0)
