"""Tests for the matcher (§4.2) and prefetch selection (§4.3, §4.5)."""

import numpy as np
import pytest

from repro.core.matcher import ExpertMapMatcher
from repro.core.prefetch import (
    prefetch_priority,
    select_prefetch_experts,
    selection_threshold,
)
from repro.core.store import ExpertMapStore
from repro.errors import ConfigError
from repro.moe.gating import softmax_rows


@pytest.fixture
def loaded_matcher(rng):
    store = ExpertMapStore(
        capacity=16,
        num_layers=6,
        num_experts=4,
        embedding_dim=8,
        prefetch_distance=2,
    )
    records = []
    for _ in range(10):
        emb = rng.standard_normal(8)
        emb /= np.linalg.norm(emb)
        m = softmax_rows(rng.standard_normal((6, 4)))
        store.add(emb, m)
        records.append((emb, m))
    return ExpertMapMatcher(store), records


class TestMatcher:
    def test_semantic_match_exact(self, loaded_matcher):
        matcher, records = loaded_matcher
        result = matcher.match_semantic(records[4][0][None, :])
        assert result is not None
        assert int(result.indices[0]) == 4
        assert result.scores[0] == pytest.approx(1.0, abs=1e-5)
        assert result.batch_size == 1

    def test_trajectory_match_exact(self, loaded_matcher):
        matcher, records = loaded_matcher
        session = matcher.incremental_session(1)
        for row in records[7][1][:3]:
            result = session.observe_layer(row[None, :])
        assert result is not None
        assert int(result.indices[0]) == 7

    def test_batched_queries(self, loaded_matcher, rng):
        matcher, records = loaded_matcher
        queries = np.stack([records[0][0], records[5][0]])
        result = matcher.match_semantic(queries)
        assert result.indices.tolist() == [0, 5]

    def test_empty_store_returns_none(self):
        store = ExpertMapStore(4, 6, 4, 8, 2)
        matcher = ExpertMapMatcher(store)
        assert matcher.match_semantic(np.ones((1, 8))) is None
        assert matcher.incremental_session(1).observe_layer(np.ones((1, 4))) is None

    def test_match_seconds_grows_with_store(self, loaded_matcher):
        matcher, _ = loaded_matcher
        empty = ExpertMapMatcher(ExpertMapStore(4, 6, 4, 8, 2))
        assert matcher.match_seconds() > empty.match_seconds()

    def test_matched_row(self, loaded_matcher):
        matcher, records = loaded_matcher
        result = matcher.match_semantic(records[2][0][None, :])
        row = matcher.matched_row(result, 0, 3)
        assert np.allclose(row, records[2][1][3], atol=1e-6)


class TestSelectionThreshold:
    def test_clip_behavior(self):
        assert selection_threshold(1.0) == 0.0
        assert selection_threshold(0.0) == 1.0
        assert selection_threshold(-0.5) == 1.0  # clipped at 1
        assert selection_threshold(0.3) == pytest.approx(0.7)

    def test_monotone_decreasing_in_score(self):
        scores = np.linspace(-1, 1, 21)
        deltas = [selection_threshold(s) for s in scores]
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))


class TestSelectPrefetchExperts:
    def test_minimum_is_topk_plus_one(self):
        """Constraint 8: strictly more than the K the gate activates."""
        row = np.array([0.9, 0.05, 0.03, 0.02])
        selected = select_prefetch_experts(row, threshold=0.0, top_k=2)
        assert len(selected) == 3
        assert selected[0] == 0

    def test_high_threshold_selects_more(self):
        row = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
        few = select_prefetch_experts(row, threshold=0.2, top_k=1)
        many = select_prefetch_experts(row, threshold=0.95, top_k=1)
        assert len(many) > len(few)

    def test_probability_mass_constraint(self):
        row = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
        selected = select_prefetch_experts(row, threshold=0.8, top_k=1)
        assert row[selected].sum() >= 0.8

    def test_descending_probability_order(self):
        row = np.array([0.1, 0.5, 0.2, 0.2])
        selected = select_prefetch_experts(row, threshold=0.9, top_k=1)
        probs = row[selected]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_max_count_cap(self):
        row = np.full(10, 0.1)
        selected = select_prefetch_experts(
            row, threshold=1.0, top_k=2, max_count=4
        )
        assert len(selected) == 4

    def test_cap_never_below_minimum(self):
        row = np.full(10, 0.1)
        selected = select_prefetch_experts(
            row, threshold=0.0, top_k=4, max_count=1
        )
        assert len(selected) == 5  # top_k + 1 beats the cap

    def test_narrow_layer(self):
        row = np.array([0.6, 0.4])
        selected = select_prefetch_experts(row, threshold=1.0, top_k=2)
        assert len(selected) == 2  # cannot exceed layer width

    def test_validation(self):
        with pytest.raises(ConfigError):
            select_prefetch_experts(np.ones((2, 2)), 0.5, 1)
        with pytest.raises(ConfigError):
            select_prefetch_experts(np.ones(4) / 4, 1.5, 1)
        with pytest.raises(ConfigError):
            select_prefetch_experts(np.ones(4) / 4, 0.5, 0)


class TestPrefetchPriority:
    def test_near_layers_first(self):
        assert prefetch_priority(0.5, 5, 3) > prefetch_priority(0.5, 8, 3)

    def test_likely_experts_first(self):
        assert prefetch_priority(0.9, 5, 3) > prefetch_priority(0.1, 5, 3)

    def test_formula(self):
        assert prefetch_priority(0.6, 7, 4) == pytest.approx(0.2)

    def test_rejects_past_layers(self):
        with pytest.raises(ConfigError):
            prefetch_priority(0.5, 3, 3)
        with pytest.raises(ConfigError):
            prefetch_priority(0.5, 2, 3)
