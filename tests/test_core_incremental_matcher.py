"""Tests for the incremental (streaming) trajectory matcher."""

import numpy as np
import pytest

from repro.core.matcher import ExpertMapMatcher
from repro.core.store import ExpertMapStore
from repro.moe.gating import softmax_rows


@pytest.fixture
def loaded(rng):
    store = ExpertMapStore(
        capacity=32,
        num_layers=6,
        num_experts=4,
        embedding_dim=8,
        prefetch_distance=2,
    )
    for _ in range(12):
        emb = rng.standard_normal(8)
        store.add(emb, softmax_rows(rng.standard_normal((6, 4))))
    return ExpertMapMatcher(store), store


def naive_prefix_cosine(query, stored, prefix):
    """Cosine of flattened ``prefix``-layer trajectories, normalized per call."""
    a = query[:, :prefix, :].reshape(query.shape[0], -1).astype(np.float64)
    b = stored[:, :prefix, :].reshape(stored.shape[0], -1).astype(np.float64)
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    na[na == 0.0] = 1.0
    nb[nb == 0.0] = 1.0
    return (a / na) @ (b / nb).T


class TestEquivalence:
    def test_matches_full_recompute_layer_by_layer(self, loaded, rng):
        """Incremental scores must equal the O(C·l·J) full computation.

        The reference refold is documented as bitwise identical; a naive
        per-prefix cosine pins both to Eq. 5 itself.
        """
        matcher, store = loaded
        query = softmax_rows(rng.standard_normal((2, 6, 4)))
        session = matcher.incremental_session(batch_size=2)
        reference = matcher.reference_session(batch_size=2)
        stored = store._maps[: len(store)]
        for layer in range(6):
            incremental = session.observe_layer(query[:, layer, :])
            full = reference.observe_layer(query[:, layer, :])
            assert incremental is not None and full is not None
            assert np.array_equal(incremental.scores, full.scores)
            assert np.array_equal(incremental.indices, full.indices)
            naive = naive_prefix_cosine(query, stored, layer + 1)
            assert np.array_equal(incremental.indices, naive.argmax(axis=1))
            assert np.allclose(
                incremental.scores, naive.max(axis=1), rtol=0, atol=1e-9
            )

    def test_exact_prefix_scores_one(self, loaded):
        matcher, store = loaded
        target = store.get_map(5)[None, :, :].astype(np.float64)
        session = matcher.incremental_session(batch_size=1)
        for layer in range(6):
            result = session.observe_layer(target[:, layer, :])
        assert int(result.indices[0]) == 5
        assert result.scores[0] == pytest.approx(1.0, abs=1e-5)


class TestGuards:
    def test_empty_store_returns_none(self):
        store = ExpertMapStore(4, 6, 4, 8, 2)
        session = ExpertMapMatcher(store).incremental_session(1)
        assert session.observe_layer(np.ones((1, 4))) is None

    def test_batch_size_mismatch(self, loaded):
        matcher, _ = loaded
        session = matcher.incremental_session(batch_size=2)
        with pytest.raises(ValueError, match="expected batch"):
            session.observe_layer(np.ones((3, 4)))

    def test_too_many_layers(self, loaded, rng):
        matcher, _ = loaded
        session = matcher.incremental_session(batch_size=1)
        for _ in range(6):
            session.observe_layer(rng.random((1, 4)))
        with pytest.raises(ValueError, match="already observed"):
            session.observe_layer(rng.random((1, 4)))

    def test_invalid_batch_size(self, loaded):
        matcher, _ = loaded
        with pytest.raises(ValueError):
            matcher.incremental_session(0)


class TestPerformance:
    def test_incremental_is_faster_on_wide_models(self, rng):
        """The optimization target: Qwen-like shapes (24 × 60)."""
        import time

        store = ExpertMapStore(512, 24, 60, 64, prefetch_distance=3)
        for _ in range(512):
            store.add(
                rng.standard_normal(64),
                softmax_rows(rng.standard_normal((24, 60))),
            )
        matcher = ExpertMapMatcher(store)
        query = softmax_rows(rng.standard_normal((1, 24, 60)))

        start = time.perf_counter()
        for _ in range(5):
            session = matcher.incremental_session(1)
            for layer in range(24):
                session.observe_layer(query[:, layer, :])
        incremental_time = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(5):
            session = matcher.reference_session(1)
            for layer in range(24):
                session.observe_layer(query[:, layer, :])
        full_time = time.perf_counter() - start

        assert incremental_time < full_time
