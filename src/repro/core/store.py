"""The Expert Map Store (paper §3.2, §4.4).

A capacity-bounded collection of (semantic embedding, expert map) records
from historical inference iterations, held in preallocated arrays so the
matcher's batched cosine computations are single matrix products.

Stored rows are pre-normalized at :meth:`ExpertMapStore.add` time: unit
embeddings, float64-flattened maps, per-layer squared norms and one
full-map norm are maintained per slot, so no search re-normalizes the
stored side.  Insertion is O(L·J) per record; searches happen far more
often than inserts, so the work moves to the cheap side.

The store itself answers the semantic search (Eq. 4) and the redundancy
score below.  The trajectory search (Eq. 5) lives in
:class:`repro.core.matcher.IncrementalTrajectoryMatch`, which folds the
cached per-layer rows and squared norms one layer at a time.

When full, the store deduplicates: each incoming iteration computes the
unified redundancy score against every stored record,

    RDY_{x,y} = (d/L) · score_sem(x,y) + ((L−d)/L) · score_traj(x,y),

and replaces the stored record it is most redundant with — keeping the
store diverse so some useful map exists for any future prompt.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import ConfigError


class StoreRecord(NamedTuple):
    """One stored iteration context (copies, for inspection/tests)."""

    embedding: np.ndarray
    expert_map: np.ndarray


class ExpertMapStore:
    """Fixed-capacity store of iteration-level expert maps."""

    def __init__(
        self,
        capacity: int,
        num_layers: int,
        num_experts: int,
        embedding_dim: int,
        prefetch_distance: int = 3,
    ) -> None:
        if capacity < 1:
            raise ConfigError("store capacity must be >= 1")
        if num_layers < 1 or num_experts < 1:
            raise ConfigError("num_layers and num_experts must be >= 1")
        if embedding_dim < 1:
            raise ConfigError("embedding_dim must be >= 1")
        if not 1 <= prefetch_distance <= num_layers:
            raise ConfigError(
                "prefetch_distance must be in [1, num_layers]"
            )
        self.capacity = capacity
        self.num_layers = num_layers
        self.num_experts = num_experts
        self.embedding_dim = embedding_dim
        self.prefetch_distance = prefetch_distance
        self._embeddings = np.zeros((capacity, embedding_dim), dtype=np.float32)
        self._maps = np.zeros(
            (capacity, num_layers, num_experts), dtype=np.float32
        )
        # Pre-normalized search-side rows, maintained per slot by add():
        # unit-norm embeddings, float64 flattened maps, and the full-map
        # norm ||map|| the redundancy score divides by.  Zero norms are
        # stored as 1.0 so divisions yield 0 similarity, matching the
        # cosine convention for zero rows.
        self._embeddings_unit = np.zeros(
            (capacity, embedding_dim), dtype=np.float64
        )
        self._maps_flat = np.zeros(
            (capacity, num_layers * num_experts), dtype=np.float64
        )
        self._full_norms = np.ones(capacity, dtype=np.float64)
        # Per-layer squared norms ||map[l]||² of every slot, cached at
        # insertion so incremental trajectory matchers can fold in one
        # layer without re-squaring the stored rows each time.
        self._layer_sq = np.zeros((capacity, num_layers), dtype=np.float64)
        self._size = 0
        self.total_added = 0
        self.replacements = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        return self._size >= self.capacity

    @property
    def is_empty(self) -> bool:
        return self._size == 0

    def record(self, index: int) -> StoreRecord:
        """Copy of the stored (embedding, map) pair at ``index``."""
        if not 0 <= index < self._size:
            raise ConfigError(f"record index {index} out of range")
        return StoreRecord(
            embedding=self._embeddings[index].copy(),
            expert_map=self._maps[index].copy(),
        )

    def get_map(self, index: int) -> np.ndarray:
        """Stored expert map ``(L, J)`` (read-only view)."""
        if not 0 <= index < self._size:
            raise ConfigError(f"record index {index} out of range")
        return self._maps[index]

    def gather_maps(self, indices: np.ndarray) -> np.ndarray:
        """Stored maps for a batch of slots: ``(B, L, J)`` float32 copy.

        The columnar gather form of :meth:`get_map` — one fancy index
        instead of one Python call per batch position.
        """
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size and (
            indices.min() < 0 or indices.max() >= self._size
        ):
            raise ConfigError("record index out of range")
        return self._maps[indices]

    def gather_rows(self, indices: np.ndarray, layer: int) -> np.ndarray:
        """One map layer for a batch of slots: ``(B, J)`` float32 copy."""
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size and (
            indices.min() < 0 or indices.max() >= self._size
        ):
            raise ConfigError("record index out of range")
        return self._maps[indices, layer]

    def layer_sq_norms(self, layer: int, size: int) -> np.ndarray:
        """Cached ``||map[layer]||²`` of the first ``size`` slots."""
        return self._layer_sq[:size, layer]

    def memory_bytes(self, allocated: bool = False) -> int:
        """CPU memory footprint (Fig. 16): maps + embeddings, float32."""
        rows = self.capacity if allocated else self._size
        per_record = (
            self.num_layers * self.num_experts + self.embedding_dim
        ) * 4
        return rows * per_record

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def add(self, embedding: np.ndarray, expert_map: np.ndarray) -> int:
        """Insert one record; returns the slot it landed in."""
        embedding = np.asarray(embedding, dtype=np.float32)
        expert_map = np.asarray(expert_map, dtype=np.float32)
        if embedding.shape != (self.embedding_dim,):
            raise ConfigError(
                f"embedding shape {embedding.shape} != ({self.embedding_dim},)"
            )
        if expert_map.shape != (self.num_layers, self.num_experts):
            raise ConfigError(
                f"map shape {expert_map.shape} != "
                f"({self.num_layers}, {self.num_experts})"
            )
        self.total_added += 1
        if self._size < self.capacity:
            slot = self._size
            self._size += 1
        else:
            slot = self._most_redundant_slot(embedding, expert_map)
            self.replacements += 1
        self._embeddings[slot] = embedding
        self._maps[slot] = expert_map
        self._refresh_derived(slot)
        return slot

    def _refresh_derived(self, slot: int) -> None:
        """Recompute the pre-normalized rows for one (re)written slot."""
        emb = self._embeddings[slot].astype(np.float64)
        norm = float(np.linalg.norm(emb))
        self._embeddings_unit[slot] = emb / (norm if norm != 0.0 else 1.0)
        stored = self._maps[slot].astype(np.float64)
        self._maps_flat[slot] = stored.reshape(-1)
        layer_sq = (stored**2).sum(axis=1)
        self._layer_sq[slot] = layer_sq
        # The last entry of the cumulative sum, not ``layer_sq.sum()``:
        # numpy's pairwise summation can differ from the left-to-right
        # fold by an ulp, which would move dedup choices.
        norm = float(np.sqrt(np.cumsum(layer_sq)[-1]))
        self._full_norms[slot] = norm if norm != 0.0 else 1.0

    def _most_redundant_slot(
        self, embedding: np.ndarray, expert_map: np.ndarray
    ) -> int:
        scores = self.redundancy_scores(
            embedding[None, :], expert_map[None, :, :]
        )
        return int(np.argmax(scores[0]))

    def redundancy_scores(
        self, embeddings: np.ndarray, maps: np.ndarray
    ) -> np.ndarray:
        """Unified redundancy score RDY (§4.4), shape ``(B, size)``."""
        if self.is_empty:
            raise ConfigError("redundancy undefined for an empty store")
        sem = self.semantic_scores(embeddings)
        flat_new = np.asarray(maps, dtype=np.float64).reshape(
            maps.shape[0], -1
        )
        norms = np.linalg.norm(flat_new, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        dots = (flat_new / norms) @ self._maps_flat[: self._size].T
        traj = dots / self._full_norms[: self._size]
        d, total = self.prefetch_distance, self.num_layers
        return (d / total) * sem + ((total - d) / total) * traj

    # ------------------------------------------------------------------ #
    # Affinity summary (cluster routing)
    # ------------------------------------------------------------------ #

    def best_semantic_score(self, embedding: np.ndarray) -> float:
        """Best cosine match of one query embedding against the store.

        The affinity-routing signal: the maximum of
        :meth:`semantic_scores` for a single query, or ``-1.0`` when the
        store is empty (no evidence, defer to load-based routing).
        """
        if self.is_empty:
            return -1.0
        embedding = np.asarray(embedding, dtype=np.float64)
        scores = self.semantic_scores(embedding[None, :])
        return float(scores[0].max())

    # ------------------------------------------------------------------ #
    # Semantic search (Eq. 4)
    # ------------------------------------------------------------------ #

    def semantic_scores(self, embeddings: np.ndarray) -> np.ndarray:
        """Cosine similarity of query embeddings vs stored: ``(B, size)``."""
        if self.is_empty:
            raise ConfigError("cannot search an empty store")
        queries = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        if queries.shape[1] != self.embedding_dim:
            raise ValueError(
                f"dimension mismatch: {queries.shape[1]} vs "
                f"{self.embedding_dim}"
            )
        norms = np.linalg.norm(queries, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return (queries / norms) @ self._embeddings_unit[: self._size].T
