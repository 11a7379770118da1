"""Tests for the prefetch-distance auto-tuner."""

import pytest

from repro.core.autotune import (
    DistanceScore,
    transfer_coverage,
    tune_prefetch_distance,
)
from repro.errors import ConfigError
from repro.moe.config import MIXTRAL_8X7B, tiny_test_model
from repro.serving.hardware import DEFAULT_HARDWARE, HardwareConfig
from repro.workloads.profiler import collect_history
from repro.workloads.split import warm_test_split


class TestCoverage:
    def test_monotone_in_distance(self):
        values = [
            transfer_coverage(MIXTRAL_8X7B, DEFAULT_HARDWARE, d)
            for d in (1, 2, 3, 6)
        ]
        assert values == sorted(values)
        assert all(0 < v <= 1 for v in values)

    def test_paper_regime_saturates_near_three(self):
        """On the paper's testbed, d=3 roughly hides one expert copy."""
        assert transfer_coverage(MIXTRAL_8X7B, DEFAULT_HARDWARE, 1) < 0.9
        assert transfer_coverage(MIXTRAL_8X7B, DEFAULT_HARDWARE, 3) > 0.9

    def test_fast_link_always_covered(self):
        fast = HardwareConfig(pcie_bandwidth_bps=1e15)
        assert transfer_coverage(MIXTRAL_8X7B, fast, 1) == 1.0

    def test_invalid_distance(self):
        with pytest.raises(ConfigError):
            transfer_coverage(MIXTRAL_8X7B, DEFAULT_HARDWARE, 0)


class TestTuner:
    @pytest.fixture(scope="class")
    def traces(self):
        from repro.moe.model import MoEModel
        from repro.workloads.datasets import DatasetProfile, make_dataset

        config = tiny_test_model(num_layers=8)
        model = MoEModel(config, seed=0)
        profile = DatasetProfile(
            name="tune",
            num_clusters=config.routing.num_clusters,
            input_log_mean=3.0,
            input_max=64,
            output_log_mean=2.2,
            output_max=16,
        )
        requests = make_dataset(profile, 16, seed=1)
        warm_reqs, probe_reqs = warm_test_split(requests, 0.7, seed=2)
        return (
            config,
            collect_history(model, warm_reqs),
            collect_history(model, probe_reqs[:3]),
        )

    def test_returns_score_per_candidate(self, traces):
        config, warm, probe = traces
        result = tune_prefetch_distance(
            config, warm, probe, candidates=(1, 2, 4)
        )
        assert [s.distance for s in result.scores] == [1, 2, 4]
        assert result.best_distance in (1, 2, 4)

    def test_slow_link_prefers_longer_distance(self, traces):
        """Coverage pressure pushes the optimum away from d=1."""
        config, warm, probe = traces
        slow = HardwareConfig(
            pcie_bandwidth_bps=1e8,
            framework_layer_overhead_seconds=1e-3,
        )
        fast = HardwareConfig(pcie_bandwidth_bps=1e15)
        slow_result = tune_prefetch_distance(
            config, warm, probe, candidates=(1, 4), hardware=slow
        )
        fast_result = tune_prefetch_distance(
            config, warm, probe, candidates=(1, 4), hardware=fast
        )
        # With an infinitely fast link only accuracy matters → d=1 wins;
        # a slow link demands more coverage → larger d.
        assert fast_result.best_distance == 1
        assert slow_result.best_distance >= fast_result.best_distance

    def test_candidates_beyond_model_are_skipped(self, traces):
        config, warm, probe = traces
        result = tune_prefetch_distance(
            config, warm, probe, candidates=(2, 999)
        )
        assert [s.distance for s in result.scores] == [2]

    def test_no_valid_candidates(self, traces):
        config, warm, probe = traces
        with pytest.raises(ConfigError):
            tune_prefetch_distance(config, warm, probe, candidates=(999,))
        with pytest.raises(ConfigError):
            tune_prefetch_distance(config, warm, probe, candidates=())

    def test_utility_formula(self):
        score = DistanceScore(distance=3, hit_rate=0.8, coverage=0.5)
        assert score.utility == pytest.approx(0.4)
