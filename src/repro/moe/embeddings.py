"""Simulated semantic-embedding layer.

The paper extracts semantic embeddings for each prompt from the MoE model's
own embedding layer (§4.2).  Here the embedding space is generated directly:
each workload topic cluster gets a fixed unit-norm center, and a prompt's
embedding is its cluster center perturbed by isotropic noise and re-
normalized.  Cosine similarity between prompts of the same cluster is
therefore high, and across clusters close to zero — the structure fMoE's
semantic search exploits.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


class EmbeddingModel:
    """Maps (cluster, per-prompt noise) to unit-norm embedding vectors."""

    def __init__(
        self,
        num_clusters: int,
        dim: int,
        noise_scale: float = 0.35,
        seed: int = 0,
    ) -> None:
        if num_clusters < 1:
            raise ConfigError("num_clusters must be >= 1")
        if dim < 2:
            raise ConfigError("embedding dim must be >= 2")
        if noise_scale < 0:
            raise ConfigError("noise_scale must be >= 0")
        self.num_clusters = num_clusters
        self.dim = dim
        self.noise_scale = noise_scale
        rng = np.random.default_rng(seed)
        centers = rng.standard_normal((num_clusters, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        self._centers = centers

    @property
    def centers(self) -> np.ndarray:
        """Unit-norm cluster centers, shape ``(num_clusters, dim)``."""
        return self._centers.copy()

    def embed(self, cluster: int, rng: np.random.Generator) -> np.ndarray:
        """Embedding of a prompt from ``cluster`` with fresh prompt noise."""
        return self.embed_with_residual(cluster, rng)[0]

    def embed_with_residual(
        self, cluster: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """(embedding, residual) for a prompt of ``cluster``.

        The residual is the raw standard-normal noise vector that displaced
        the embedding from its cluster center.  The routing model derives
        the prompt's persistent gate bias from the *same* vector, which is
        what makes semantically closer prompts route more similarly — the
        correlation fMoE's semantic search exploits (paper Fig. 8).
        """
        if not 0 <= cluster < self.num_clusters:
            raise ConfigError(
                f"cluster {cluster} out of range [0, {self.num_clusters})"
            )
        residual = rng.standard_normal(self.dim)
        # The residual has norm ~sqrt(dim); normalize its contribution so
        # noise_scale is the displacement relative to the unit-norm center.
        vec = self._centers[cluster] + (
            self.noise_scale / np.sqrt(self.dim)
        ) * residual
        norm = np.linalg.norm(vec)
        if norm == 0.0:  # pragma: no cover - measure-zero event
            return self._centers[cluster].copy(), residual
        return vec / norm, residual


def cosine_similarity_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity between rows of ``a`` and rows of ``b``.

    Shapes: ``a`` is ``(B, h)``, ``b`` is ``(C, h)``; the result is
    ``(B, C)``, matching Eq. 4/5 of the paper.  Zero rows yield zero
    similarity instead of NaN.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    return _unit_rows(a) @ _unit_rows(b).T


#: Below this norm a row's squared norm is subnormal (or zero) in float64
#: and has lost precision: sqrt of the smallest normal double.
_MIN_SAFE_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """``x`` with every nonzero row scaled to unit length.

    Rows whose squared norm underflows are first divided by their
    largest magnitude, so a row of 1e-162 normalizes like a row of 1.
    Every other row takes the plain ``x / norm`` path, bit for bit.
    """
    norm = np.linalg.norm(x, axis=1, keepdims=True)
    tiny = norm[:, 0] < _MIN_SAFE_NORM
    if tiny.any():
        peak = np.abs(x[tiny]).max(axis=1, keepdims=True)
        peak[peak == 0.0] = 1.0
        x = x.copy()
        x[tiny] /= peak
        norm[tiny] = np.linalg.norm(x[tiny], axis=1, keepdims=True)
    norm[norm == 0.0] = 1.0
    return x / norm
