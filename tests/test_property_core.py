"""Property-based tests (hypothesis) for fMoE's core data structures."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.entropy import shannon_entropy
from repro.core.expert_map import ExpertMap
from repro.core.prefetch import (
    prefetch_priority,
    select_prefetch_experts,
    selection_threshold,
)
from repro.core.store import ExpertMapStore
from repro.moe.embeddings import cosine_similarity_matrix
from repro.moe.gating import softmax_rows, top_k_indices

from tests._strategies import distributions


class TestExpertMapProperties:
    @given(grid=distributions())
    def test_rows_remain_normalized(self, grid):
        m = ExpertMap(grid)
        assert np.allclose(m.data.sum(axis=1), 1.0, atol=1e-3)

    @given(grid=distributions(), k=st.integers(1, 2))
    def test_topk_recovery_counts(self, grid, k):
        m = ExpertMap(grid)
        counts = m.activation_counts(k)
        assert counts.sum() == k * m.num_layers

    @given(grid=distributions())
    def test_prefix_is_consistent_with_flatten(self, grid):
        m = ExpertMap(grid)
        for layers in range(m.num_layers + 1):
            assert np.array_equal(
                m.prefix(layers), m.flattened()[: layers * m.num_experts]
            )


class TestPrefetchProperties:
    @given(
        logits=hnp.arrays(
            np.float64, (8,), elements=st.floats(-5, 5, allow_nan=False)
        ),
        threshold=st.floats(0, 1),
        top_k=st.integers(1, 7),
    )
    def test_selection_invariants(self, logits, threshold, top_k):
        row = softmax_rows(logits[None, :])[0]
        selected = select_prefetch_experts(row, threshold, top_k)
        # Constraint 8: strictly more than top-K (layer width permitting).
        assert len(selected) >= min(top_k + 1, 8)
        assert len(selected) <= 8
        assert len(set(selected.tolist())) == len(selected)
        # Either the probability-mass constraint holds or everything
        # below the cap was taken.
        assert row[selected].sum() >= min(
            threshold, row[np.argsort(row)[::-1][: len(selected)]].sum()
        ) - 1e-9

    @given(score=st.floats(-1, 1))
    def test_threshold_in_unit_interval(self, score):
        assert 0.0 <= selection_threshold(score) <= 1.0

    @given(
        p=st.floats(0, 1),
        layer=st.integers(1, 64),
        current=st.integers(-1, 62),
    )
    def test_priority_positive_and_monotone(self, p, layer, current):
        if layer <= current:
            return
        priority = prefetch_priority(p, layer, current)
        assert priority >= 0
        if layer + 1 > current:
            assert prefetch_priority(p, layer + 1, current) <= priority or p == 0


class TestStoreProperties:
    @given(
        capacity=st.integers(1, 6),
        inserts=st.integers(0, 20),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_size_never_exceeds_capacity(self, capacity, inserts, seed):
        rng = np.random.default_rng(seed)
        store = ExpertMapStore(capacity, 3, 4, 5, prefetch_distance=1)
        for _ in range(inserts):
            emb = rng.standard_normal(5)
            grid = softmax_rows(rng.standard_normal((3, 4)))
            store.add(emb, grid)
        assert len(store) == min(capacity, inserts)
        assert store.total_added == inserts
        if inserts > 0:
            scores = store.semantic_scores(rng.standard_normal((1, 5)))
            assert scores.shape == (1, len(store))


class TestMathHelpers:
    @given(
        a=hnp.arrays(
            np.float64, (3, 6), elements=st.floats(-10, 10, allow_nan=False)
        ),
        b=hnp.arrays(
            np.float64, (4, 6), elements=st.floats(-10, 10, allow_nan=False)
        ),
    )
    # A tiny row's squared norm is subnormal (1e-160) or underflows to
    # zero (1e-162); both must still normalize to a unit row.
    @example(
        a=np.tile(np.eye(1, 6), (3, 1)),
        b=np.tile(1e-160 * np.eye(1, 6), (4, 1)),
    )
    @example(
        a=np.tile(np.eye(1, 6), (3, 1)),
        b=np.tile(1e-162 * np.eye(1, 6), (4, 1)),
    )
    def test_cosine_bounded(self, a, b):
        scores = cosine_similarity_matrix(a, b)
        assert np.all(scores <= 1.0 + 1e-6)
        assert np.all(scores >= -1.0 - 1e-6)
        assert np.isfinite(scores).all()

    @given(
        logits=hnp.arrays(
            np.float64,
            (4, 8),
            elements=st.floats(-30, 30, allow_nan=False),
        )
    )
    def test_softmax_entropy_bounded(self, logits):
        probs = softmax_rows(logits)
        for row in probs:
            h = shannon_entropy(row)
            assert 0.0 <= h <= np.log2(8) + 1e-9

    @given(
        row=hnp.arrays(
            np.float64, (9,), elements=st.floats(-5, 5, allow_nan=False)
        ),
        k=st.integers(1, 9),
    )
    def test_top_k_selects_largest(self, row, k):
        selected = top_k_indices(row, k)
        assert len(selected) == k
        threshold = np.sort(row)[::-1][k - 1]
        assert all(row[j] >= threshold - 1e-12 for j in selected)
