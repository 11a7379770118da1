"""Property-based tests (hypothesis) for fMoE's core data structures."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.entropy import shannon_entropy
from repro.core.cache import FMoECacheScorer
from repro.core.expert_map import ExpertMap
from repro.core.prefetch import (
    prefetch_priority,
    select_prefetch_counts,
    select_prefetch_experts,
    selection_threshold,
)
from repro.core.store import ExpertMapStore
from repro.moe.embeddings import cosine_similarity_matrix
from repro.moe.gating import softmax_rows, top_k_indices
from repro.types import ExpertId

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


#: Probabilities with many exact ties (and exact zeros) mixed with
#: arbitrary ones, so sorted orders and cumulative sums hit equal values.
_TIED_PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 0.125, 0.25, 0.5]), st.floats(0, 1)
)


@st.composite
def _selection_lanes(draw):
    """``(rows (N, J), thresholds (N,), top_k, max_count)``."""
    lanes = draw(st.integers(1, 6))
    width = draw(st.integers(1, 9))
    rows = draw(
        hnp.arrays(np.float64, (lanes, width), elements=_TIED_PROBABILITIES)
    )
    thresholds = draw(
        hnp.arrays(
            np.float64,
            (lanes,),
            elements=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
        )
    )
    top_k = draw(st.integers(1, width))
    max_count = draw(st.one_of(st.none(), st.integers(0, width + 2)))
    return rows, thresholds, top_k, max_count


class TestBatchedSelectionProperties:
    @given(lanes=_selection_lanes())
    @example(lanes=(np.full((3, 8), 0.125), np.array([0.0, 0.5, 1.0]), 2, 4))
    @example(lanes=(np.zeros((2, 8)), np.array([0.0, 1.0]), 1, None))
    @example(
        lanes=(
            np.array([[0.5, 0.25, 0.25, 0.0], [0.25, 0.25, 0.25, 0.25]]),
            np.array([1.0, 0.75]),
            1,
            1,
        )
    )
    @settings(max_examples=200)
    def test_each_lane_matches_the_scalar_selection(self, lanes):
        rows, thresholds, top_k, max_count = lanes
        order, counts = select_prefetch_counts(
            rows, thresholds, top_k, max_count=max_count
        )
        assert counts.shape == (rows.shape[0],)
        for i, row in enumerate(rows):
            want = select_prefetch_experts(
                row, float(thresholds[i]), top_k, max_count=max_count
            )
            assert np.array_equal(order[i, : counts[i]], want), i


@st.composite
def _scorer_steps(draw):
    """A scorer shape and a random sequence of its mutations."""
    layers = draw(st.integers(1, 4))
    width = draw(st.integers(1, 5))
    # Float32 map rows with exact zeros and values below the floor.
    row = hnp.arrays(
        np.float32,
        (width,),
        elements=st.one_of(
            st.just(0.0),
            st.floats(0, float(np.float32(2e-3)), width=32),
            st.floats(0, 1, width=32),
        ),
    )
    layer = st.integers(0, layers - 1)
    step = st.one_of(
        st.tuples(st.just("reset")),
        st.tuples(st.just("done"), layer),
        st.tuples(st.just("update"), layer, row),
        st.tuples(st.just("touch"), layer, st.integers(0, width - 1)),
    )
    return layers, width, draw(st.lists(step, max_size=40))


class TestScorerProperties:
    @given(case=_scorer_steps())
    @settings(max_examples=150, deadline=None)
    def test_vector_is_a_bitwise_rebuild_after_every_step(self, case):
        layers, width, steps = case
        scorer = FMoECacheScorer(layers, width)
        floor = FMoECacheScorer.MIN_PROBABILITY
        predicted = np.zeros((layers, width))
        freq = np.zeros((layers, width), dtype=np.int64)
        for step in [("reset",), *steps]:
            kind = step[0]
            if kind == "reset":
                scorer.reset_predictions()
                predicted.fill(0.0)
            elif kind == "done":
                scorer.mark_layer_done(step[1])
                predicted[step[1]] = 0.0
            elif kind == "update":
                scorer.update_prediction_row(step[1], step[2])
                np.maximum(predicted[step[1]], step[2], out=predicted[step[1]])
            else:
                scorer.touch(ExpertId(step[1], step[2]))
                freq[step[1], step[2]] += 1
            expected = 1.0 / (
                np.maximum(predicted, floor) * np.maximum(freq, 1)
            )
            got = scorer.score_matrix()
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.shape == (layers * width,)
            assert got.tobytes() == expected.tobytes(), step
            for layer in range(layers):
                for j in range(width):
                    expert = ExpertId(layer, j)
                    p = scorer.predicted_probability(expert)
                    assert p == predicted[layer, j]
                    assert scorer.frequency(expert) == freq[layer, j]
                    assert got[layer * width + j] == 1.0 / (
                        max(p, floor) * max(scorer.frequency(expert), 1)
                    )


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
