"""Tests for fMoE's cache scorer (§4.5) and overhead model (§6.7)."""

import numpy as np
import pytest

from repro.core.cache import FMoECacheScorer
from repro.core.overheads import OverheadModel
from repro.errors import ConfigError
from repro.types import ExpertId

E = ExpertId


def score(scorer, expert):
    """One expert's cell of the scorer's flat eviction-score matrix."""
    flat = expert.layer * scorer.num_experts + expert.expert
    return scorer.score_matrix()[flat]


class TestFMoECacheScorer:
    @pytest.fixture
    def scorer(self):
        return FMoECacheScorer(num_layers=4, num_experts=4)

    def test_eviction_prefers_low_probability(self, scorer):
        scorer.update_prediction_row(0, np.array([0.9, 0.05, 0.03, 0.02]))
        assert score(scorer, E(0, 1)) > score(scorer, E(0, 0))

    def test_eviction_prefers_low_frequency(self, scorer):
        scorer.update_prediction_row(0, np.array([0.5, 0.5, 0.0, 0.0]))
        for _ in range(5):
            scorer.touch(E(0, 0))
        scorer.touch(E(0, 1))
        assert score(scorer, E(0, 1)) > score(scorer, E(0, 0))

    def test_formula(self, scorer):
        scorer.update_prediction_row(1, np.array([0.25, 0.25, 0.25, 0.25]))
        scorer.touch(E(1, 2))
        scorer.touch(E(1, 2))
        assert score(scorer, E(1, 2)) == pytest.approx(1.0 / (0.25 * 2))

    def test_unpredicted_expert_uses_floor(self, scorer):
        priority = score(scorer, E(2, 0))
        assert np.isfinite(priority)
        assert priority == pytest.approx(
            1.0 / FMoECacheScorer.MIN_PROBABILITY
        )

    def test_reset_predictions(self, scorer):
        scorer.update_prediction_row(0, np.array([0.9, 0.05, 0.03, 0.02]))
        scorer.reset_predictions()
        assert scorer.predicted_probability(E(0, 0)) == 0.0

    def test_mark_layer_done(self, scorer):
        scorer.update_prediction_row(2, np.array([0.9, 0.05, 0.03, 0.02]))
        scorer.mark_layer_done(2)
        assert scorer.predicted_probability(E(2, 0)) == 0.0

    def test_prediction_merge_is_maximum(self, scorer):
        scorer.update_prediction_row(0, np.array([0.1, 0.8, 0.05, 0.05]))
        scorer.update_prediction_row(0, np.array([0.7, 0.1, 0.1, 0.1]))
        assert scorer.predicted_probability(E(0, 0)) == pytest.approx(0.7)
        assert scorer.predicted_probability(E(0, 1)) == pytest.approx(0.8)

    def test_layer_bounds(self, scorer):
        with pytest.raises(ConfigError):
            scorer.update_prediction_row(4, np.zeros(4))
        with pytest.raises(ConfigError):
            scorer.mark_layer_done(-1)

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            FMoECacheScorer(0, 4)


class TestOverheadModel:
    def test_defaults_within_paper_bound(self):
        """Per-iteration synchronous overhead must stay well under 30 ms."""
        model = OverheadModel()
        assert model.context_collect_seconds < 0.03

    def test_match_seconds_scales_with_store(self):
        model = OverheadModel()
        assert model.match_seconds(10_000) > model.match_seconds(0)
        assert model.match_seconds(0) == pytest.approx(
            model.map_match_base_seconds
        )

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            OverheadModel(context_collect_seconds=-1.0)
