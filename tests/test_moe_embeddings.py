"""Tests for the simulated semantic-embedding layer."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.moe.embeddings import EmbeddingModel, cosine_similarity_matrix


class TestEmbeddingModel:
    def test_embeddings_are_unit_norm(self, rng):
        model = EmbeddingModel(num_clusters=8, dim=32, seed=0)
        for cluster in range(8):
            vec = model.embed(cluster, rng)
            assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_same_cluster_closer_than_cross_cluster(self, rng):
        model = EmbeddingModel(num_clusters=16, dim=64, seed=0)
        same, cross = [], []
        for cluster in range(16):
            a = model.embed(cluster, rng)
            b = model.embed(cluster, rng)
            c = model.embed((cluster + 1) % 16, rng)
            same.append(float(a @ b))
            cross.append(float(a @ c))
        assert np.mean(same) > np.mean(cross) + 0.3

    def test_residual_drives_embedding(self, rng):
        model = EmbeddingModel(num_clusters=4, dim=32, noise_scale=0.5, seed=0)
        emb, residual = model.embed_with_residual(0, rng)
        centers = model.centers
        reconstructed = centers[0] + (0.5 / np.sqrt(32)) * residual
        reconstructed /= np.linalg.norm(reconstructed)
        assert np.allclose(emb, reconstructed)

    def test_invalid_cluster_raises(self, rng):
        model = EmbeddingModel(num_clusters=4, dim=8, seed=0)
        with pytest.raises(ConfigError):
            model.embed(4, rng)
        with pytest.raises(ConfigError):
            model.embed(-1, rng)

    def test_deterministic_given_seed(self):
        a = EmbeddingModel(num_clusters=4, dim=8, seed=7)
        b = EmbeddingModel(num_clusters=4, dim=8, seed=7)
        assert np.allclose(a.centers, b.centers)

    def test_validation(self):
        with pytest.raises(ConfigError):
            EmbeddingModel(num_clusters=0, dim=8)
        with pytest.raises(ConfigError):
            EmbeddingModel(num_clusters=4, dim=1)
        with pytest.raises(ConfigError):
            EmbeddingModel(num_clusters=4, dim=8, noise_scale=-1.0)


class TestCosineSimilarityMatrix:
    def test_identity(self):
        a = np.eye(3)
        scores = cosine_similarity_matrix(a, a)
        assert np.allclose(scores, np.eye(3))

    def test_shape(self, rng):
        a = rng.standard_normal((5, 16))
        b = rng.standard_normal((9, 16))
        assert cosine_similarity_matrix(a, b).shape == (5, 9)

    def test_range(self, rng):
        a = rng.standard_normal((10, 8))
        b = rng.standard_normal((10, 8))
        scores = cosine_similarity_matrix(a, b)
        assert np.all(scores <= 1.0 + 1e-9)
        assert np.all(scores >= -1.0 - 1e-9)

    def test_zero_rows_give_zero_not_nan(self):
        a = np.zeros((1, 4))
        b = np.ones((1, 4))
        scores = cosine_similarity_matrix(a, b)
        assert scores[0, 0] == 0.0

    def test_scale_invariance(self, rng):
        a = rng.standard_normal((3, 8))
        b = rng.standard_normal((4, 8))
        assert np.allclose(
            cosine_similarity_matrix(a, b),
            cosine_similarity_matrix(10.0 * a, 0.1 * b),
        )

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_similarity_matrix(
                rng.standard_normal((2, 8)), rng.standard_normal((2, 9))
            )

    @pytest.mark.parametrize("tiny", [1e-160, 1e-162, 5e-324])
    def test_tiny_rows_normalize_to_unit(self, tiny):
        """Rows whose squared norm is subnormal or underflows to zero."""
        a = np.eye(1, 6)
        assert cosine_similarity_matrix(a, tiny * a)[0, 0] == 1.0
        assert cosine_similarity_matrix(-tiny * a, a)[0, 0] == -1.0

    def test_normal_rows_keep_their_bits(self, rng):
        a = rng.standard_normal((4, 8))
        b = rng.standard_normal((5, 8))
        b[2] = 0.0
        a_unit = a / np.linalg.norm(a, axis=1, keepdims=True)
        b_norm = np.linalg.norm(b, axis=1, keepdims=True)
        b_norm[b_norm == 0.0] = 1.0
        expected = a_unit @ (b / b_norm).T
        assert np.array_equal(cosine_similarity_matrix(a, b), expected)

    def test_accepts_1d_inputs(self):
        scores = cosine_similarity_matrix(np.ones(4), np.ones(4))
        assert scores.shape == (1, 1)
        assert scores[0, 0] == pytest.approx(1.0)
