"""Tests for the incremental (streaming) trajectory matcher."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matcher import ExpertMapMatcher, IncrementalTrajectoryMatch
from repro.core.store import ExpertMapStore
from repro.moe.gating import softmax_rows

from tests._reference_core import ReferenceTrajectoryMatch


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
    """Cosine of flattened ``prefix``-layer trajectories, normalized per
    call, in float32 like the kernel."""
    a = query[:, :prefix, :].reshape(query.shape[0], -1).astype(np.float32)
    b = stored[:, :prefix, :].reshape(stored.shape[0], -1).astype(np.float32)
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
        reference = ReferenceTrajectoryMatch(store, batch_size=2)
        stored = store.gather_maps(np.arange(len(store)))
        for layer in range(6):
            incremental = session.observe_layer(query[:, layer, :])
            full = reference.observe_layer(query[:, layer, :])
            assert incremental is not None and full is not None
            assert np.array_equal(incremental.scores, full.scores)
            assert np.array_equal(incremental.indices, full.indices)
            naive = naive_prefix_cosine(query, stored, layer + 1)
            assert np.array_equal(incremental.indices, naive.argmax(axis=1))
            # Different float32 summation orders: a few ulps apart.
            np.testing.assert_array_max_ulp(
                incremental.scores, naive.max(axis=1), maxulp=4
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

    @pytest.mark.parametrize("layers", [0, 7])
    def test_block_must_fit_the_model(self, loaded, rng, layers):
        matcher, _ = loaded
        session = matcher.incremental_session(batch_size=1)
        with pytest.raises(ValueError, match="already observed"):
            session.observe_layers(rng.random((1, layers, 4)))

    def test_invalid_batch_size(self, loaded):
        matcher, _ = loaded
        with pytest.raises(ValueError):
            matcher.incremental_session(0)



def _random_map(rng, zero: bool = False) -> np.ndarray:
    if zero:
        return np.zeros((6, 4))
    return softmax_rows(rng.standard_normal((6, 4)))


class TestKernel:
    """``observe_layers`` is the one Eq. 5 kernel: any split of the
    layers into blocks lands on the bits of one-layer calls."""

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.sampled_from([1, 2, 32]),
        records=st.integers(0, 12),
        cuts=st.sets(st.integers(1, 5)),
        zero_rows=st.booleans(),
        zero_maps=st.booleans(),
        replaced=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_block_fold_equals_layer_by_layer(
        self, batch, records, cuts, zero_rows, zero_maps, replaced, seed
    ):
        rng = np.random.default_rng(seed)
        store = ExpertMapStore(8, 6, 4, 8, prefetch_distance=2)
        for i in range(records):
            store.add(
                rng.standard_normal(8), _random_map(rng, zero_maps and i == 0)
            )
        bounds = [0, *sorted(cuts), 6]
        # Two sessions, with slots replaced (or added) in between.
        for _ in range(2):
            rows = np.zeros((batch, 6, 4)) if zero_rows else softmax_rows(
                rng.standard_normal((batch, 6, 4))
            )
            block = IncrementalTrajectoryMatch(store, batch)
            single = IncrementalTrajectoryMatch(store, batch)
            for start, stop in zip(bounds, bounds[1:]):
                got = block.observe_layers(rows[:, start:stop, :])
                for layer in range(start, stop):
                    want = single.observe_layer(rows[:, layer, :])
                    if store.is_empty:
                        assert got is None and want is None
                        continue
                    assert got.indices.shape == (stop - start, batch)
                    at = layer - start
                    assert np.array_equal(got.indices[at], want.indices)
                    assert np.array_equal(got.scores[at], want.scores)
                    assert got.scores.dtype == np.float32
            for _ in range(replaced):
                store.add(rng.standard_normal(8), _random_map(rng))

    def test_matches_reference_refold_bitwise(self, loaded, rng):
        matcher, store = loaded
        query = softmax_rows(rng.standard_normal((3, 6, 4)))
        reference = ReferenceTrajectoryMatch(store, batch_size=3)
        got = matcher.incremental_session(3).observe_layers(query)
        for layer in range(6):
            want = reference.observe_layer(query[:, layer, :])
            assert np.array_equal(got.indices[layer], want.indices)
            assert np.array_equal(got.scores[layer], want.scores)

    def test_redundancy_trajectory_term_is_the_kernel_value(self, loaded, rng):
        """RDY's trajectory term is the kernel's full-prefix cosine."""
        _, store = loaded
        embs = rng.standard_normal((2, 8))
        maps = softmax_rows(rng.standard_normal((2, 6, 4)))
        reference = ReferenceTrajectoryMatch(store, batch_size=2)
        for layer in range(6):
            reference.observe_layer(maps[:, layer, :])
        traj = reference.prefix_scores()
        kernel = IncrementalTrajectoryMatch(store, 2).observe_layers(maps)
        assert np.array_equal(traj.argmax(axis=1), kernel.indices[-1])
        assert np.array_equal(traj.max(axis=1), kernel.scores[-1])
        d, total = store.prefetch_distance, store.num_layers
        expected = (d / total) * store.semantic_scores(embs) + (
            (total - d) / total
        ) * traj
        assert np.array_equal(store.redundancy_scores(embs, maps), expected)

    def test_store_holds_one_float32_map_array(self, loaded):
        """One layer-major copy of the maps, sized as Fig. 16 counts it."""
        _, store = loaded
        maps = [
            value
            for value in vars(store).values()
            if isinstance(value, np.ndarray) and value.ndim == 3
        ]
        assert len(maps) == 1 and maps[0] is store._layer_maps
        assert maps[0].dtype == np.float32
        assert maps[0].shape == (6, store.capacity, 4)
        embeddings = store.capacity * store.embedding_dim * 4
        assert maps[0].nbytes == (
            store.memory_bytes(allocated=True) - embeddings
        )
