"""Tests for the Expert Map Store: capacity, search, deduplication."""

import numpy as np
import pytest

from repro.core.matcher import IncrementalTrajectoryMatch
from repro.core.store import ExpertMapStore
from repro.errors import ConfigError
from repro.moe.gating import softmax_rows


def make_store(capacity=8, layers=6, experts=4, dim=8, distance=2):
    return ExpertMapStore(
        capacity=capacity,
        num_layers=layers,
        num_experts=experts,
        embedding_dim=dim,
        prefetch_distance=distance,
    )


def random_record(rng, layers=6, experts=4, dim=8):
    emb = rng.standard_normal(dim)
    emb /= np.linalg.norm(emb)
    return emb, softmax_rows(rng.standard_normal((layers, experts)))


class TestBasics:
    def test_empty_store(self):
        store = make_store()
        assert len(store) == 0
        assert store.is_empty
        assert not store.is_full

    def test_add_and_fetch(self, rng):
        store = make_store()
        emb, m = random_record(rng)
        slot = store.add(emb, m)
        assert slot == 0
        assert len(store) == 1
        record = store.record(0)
        assert np.allclose(record.embedding, emb, atol=1e-6)
        assert np.allclose(record.expert_map, m, atol=1e-6)

    def test_fills_sequentially(self, rng):
        store = make_store(capacity=4)
        slots = [store.add(*random_record(rng)) for _ in range(4)]
        assert slots == [0, 1, 2, 3]
        assert store.is_full

    def test_shape_validation(self, rng):
        store = make_store()
        emb, m = random_record(rng)
        with pytest.raises(ConfigError):
            store.add(emb[:4], m)
        with pytest.raises(ConfigError):
            store.add(emb, m[:2])

    def test_record_bounds(self):
        store = make_store()
        with pytest.raises(ConfigError):
            store.record(0)

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            make_store(capacity=0)
        with pytest.raises(ConfigError):
            make_store(distance=0)
        with pytest.raises(ConfigError):
            make_store(distance=7)  # > num_layers


class TestSearch:
    def test_semantic_scores_shape(self, rng):
        store = make_store()
        for _ in range(5):
            store.add(*random_record(rng))
        queries = rng.standard_normal((3, 8))
        scores = store.semantic_scores(queries)
        assert scores.shape == (3, 5)

    def test_semantic_finds_exact_match(self, rng):
        store = make_store()
        records = [random_record(rng) for _ in range(6)]
        for emb, m in records:
            store.add(emb, m)
        scores = store.semantic_scores(records[3][0][None, :])
        assert int(np.argmax(scores[0])) == 3
        assert scores[0, 3] == pytest.approx(1.0, abs=1e-5)

    def test_trajectory_finds_exact_prefix(self, rng):
        store = make_store()
        records = [random_record(rng) for _ in range(6)]
        for emb, m in records:
            store.add(emb, m)
        session = IncrementalTrajectoryMatch(store, 1)
        for row in records[2][1][:4]:
            result = session.observe_layer(row[None, :])
        assert int(result.indices[0]) == 2

    def test_search_empty_store_raises(self, rng):
        store = make_store()
        with pytest.raises(ConfigError):
            store.semantic_scores(rng.standard_normal((1, 8)))
        session = IncrementalTrajectoryMatch(store, 1)
        assert session.observe_layer(rng.standard_normal((1, 4))) is None


class TestDeduplication:
    def test_full_store_replaces_most_redundant(self, rng):
        store = make_store(capacity=3)
        records = [random_record(rng) for _ in range(3)]
        for emb, m in records:
            store.add(emb, m)
        # Adding a near-duplicate of record 1 should replace slot 1.
        emb1, m1 = records[1]
        slot = store.add(emb1, m1 + 1e-4)
        assert slot == 1
        assert store.replacements == 1
        assert len(store) == 3

    def test_capacity_never_exceeded(self, rng):
        store = make_store(capacity=4)
        for _ in range(20):
            store.add(*random_record(rng))
        assert len(store) == 4
        assert store.total_added == 20
        assert store.replacements == 16

    def test_redundancy_scores_shape(self, rng):
        store = make_store()
        for _ in range(5):
            store.add(*random_record(rng))
        embs = rng.standard_normal((2, 8))
        maps = softmax_rows(rng.standard_normal((2, 6, 4)))
        assert store.redundancy_scores(embs, maps).shape == (2, 5)

    def test_redundancy_on_empty_raises(self, rng):
        store = make_store()
        with pytest.raises(ConfigError):
            store.redundancy_scores(
                rng.standard_normal((1, 8)),
                rng.standard_normal((1, 6, 4)),
            )

    def test_dedup_preserves_diversity(self, rng):
        """Filling with near-duplicates must not evict the distinct record."""
        store = make_store(capacity=3)
        distinct_emb, distinct_map = random_record(rng)
        store.add(distinct_emb, distinct_map)
        base_emb, base_map = random_record(rng)
        # Make the base record dissimilar from the distinct one.
        for _ in range(10):
            store.add(
                base_emb + 0.01 * rng.standard_normal(8),
                np.clip(base_map + 1e-4, 0, 1),
            )
        sims = store.semantic_scores(distinct_emb[None, :])
        assert sims.max() == pytest.approx(1.0, abs=1e-4)


def naive_cosine(a, b):
    """Reference cosine matrix: normalize both sides per call."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    na[na == 0.0] = 1.0
    nb[nb == 0.0] = 1.0
    return (a / na) @ (b / nb).T


class TestVectorizedConsistency:
    """The pre-normalized search path must match a naive cosine reference."""

    def filled(self, rng, capacity=8, count=8):
        store = make_store(capacity=capacity)
        for _ in range(count):
            store.add(*random_record(rng))
        return store

    def test_semantic_matches_naive(self, rng):
        store = self.filled(rng)
        queries = rng.standard_normal((5, 8))
        expected = naive_cosine(queries, store._embeddings[: len(store)])
        assert np.allclose(
            store.semantic_scores(queries), expected, atol=1e-6
        )

    def test_trajectory_matches_naive_at_every_prefix(self, rng):
        store = self.filled(rng)
        observed = rng.random((3, 6, 4))
        stored = store.gather_maps(np.arange(len(store)))
        session = IncrementalTrajectoryMatch(store, 3)
        for prefix in range(1, 7):
            expected = naive_cosine(
                observed[:, :prefix, :].reshape(3, -1),
                stored[:, :prefix, :].reshape(len(store), -1),
            )
            result = session.observe_layer(observed[:, prefix - 1, :])
            assert result.indices.tolist() == expected.argmax(axis=1).tolist()
            assert np.allclose(result.scores, expected.max(axis=1), atol=1e-6)

    def test_redundancy_matches_naive(self, rng):
        store = self.filled(rng)
        embs = rng.standard_normal((2, 8))
        maps = softmax_rows(rng.standard_normal((2, 6, 4)))
        sem = naive_cosine(embs, store._embeddings[: len(store)])
        traj = naive_cosine(
            maps.reshape(2, -1),
            store.gather_maps(np.arange(len(store))).reshape(8, -1),
        )
        d, total = store.prefetch_distance, store.num_layers
        expected = (d / total) * sem + ((total - d) / total) * traj
        assert np.allclose(
            store.redundancy_scores(embs, maps), expected, atol=1e-6
        )

    def test_derived_rows_consistent_after_eviction(self, rng):
        """Dedup replacement must rewrite every derived row it touches."""
        store = self.filled(rng, capacity=4, count=12)
        assert store.replacements == 8
        maps = store.gather_maps(np.arange(len(store)))
        for slot in range(len(store)):
            emb = store._embeddings[slot].astype(np.float64)
            assert np.allclose(
                store._embeddings_unit[slot],
                emb / np.linalg.norm(emb),
                atol=1e-12,
            )
            # Prefix squared norms: the per-layer float32 sums, folded
            # left to right; the last row is the full-map norm squared.
            layer_sq = (maps[slot] ** 2).sum(axis=1)
            assert layer_sq.dtype == np.float32
            prefix = np.zeros_like(layer_sq)
            running = np.float32(0.0)
            for layer, value in enumerate(layer_sq):
                running = running + value
                prefix[layer] = running
            assert np.array_equal(store._prefix_sq[:, slot], prefix)
            assert float(store._prefix_sq[-1, slot]) == pytest.approx(
                np.linalg.norm(maps[slot].astype(np.float64)) ** 2, rel=1e-6
            )
        # The searches built on those rows agree with the reference too.
        queries = rng.standard_normal((2, 8))
        assert np.allclose(
            store.semantic_scores(queries),
            naive_cosine(queries, store._embeddings[: len(store)]),
            atol=1e-6,
        )

    def test_zero_records_score_zero_without_nan(self, rng):
        store = make_store()
        store.add(np.zeros(8), np.zeros((6, 4)))
        session = IncrementalTrajectoryMatch(store, 2)
        for _ in range(3):
            traj = session.observe_layer(rng.random((2, 4)))
        assert traj.indices.tolist() == [0, 0]
        assert np.all(traj.scores == 0.0)
        store.add(*random_record(rng))
        zero_query = IncrementalTrajectoryMatch(store, 1)
        assert zero_query.observe_layer(np.zeros((1, 4))).scores[0] == 0.0
        sem = store.semantic_scores(rng.standard_normal((2, 8)))
        assert np.isfinite(sem).all()
        assert np.all(sem[:, 0] == 0.0)


class TestMemoryFootprint:
    def test_memory_bytes_used_vs_allocated(self, rng):
        store = make_store(capacity=8)
        store.add(*random_record(rng))
        per_record = (6 * 4 + 8) * 4
        assert store.memory_bytes() == per_record
        assert store.memory_bytes(allocated=True) == 8 * per_record

    def test_fig16_scale(self):
        """32K Qwen-sized maps must stay under ~200 MB (paper §6.7)."""
        store = ExpertMapStore(
            capacity=32_768,
            num_layers=24,
            num_experts=60,
            embedding_dim=64,
            prefetch_distance=3,
        )
        assert store.memory_bytes(allocated=True) < 220e6
