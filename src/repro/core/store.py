"""The Expert Map Store (paper §3.2, §4.4).

A capacity-bounded collection of (semantic embedding, expert map) records
from historical inference iterations, held in preallocated arrays so the
matcher's batched cosine computations are single matrix products.

Each map is stored once, float32 and layer-major: ``(L, C, J)``, so one
layer's rows of every slot are one contiguous block.  Beside it sit the
per-slot prefix squared norms ``(L, C)`` float32 — entry ``[l, c]`` is
``||map_c[0..l]||²`` folded left to right — and unit-norm float64
embeddings.  All are written by :meth:`ExpertMapStore.add`, so no search
re-normalizes the stored side.

The store answers the semantic search (Eq. 4) in float64 over the unit
embeddings.  The trajectory search (Eq. 5) is one float32 kernel,
:class:`repro.core.matcher.IncrementalTrajectoryMatch`, which folds
whole blocks of layers against the map array and reads the stored norms
from the cached prefix.

When full, the store deduplicates: each incoming iteration computes the
unified redundancy score against every stored record,

    RDY_{x,y} = (d/L) · score_sem(x,y) + ((L−d)/L) · score_traj(x,y),

where score_traj is the same kernel's full-prefix value, and replaces the
stored record it is most redundant with — keeping the store diverse so
some useful map exists for any future prompt.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.matcher import IncrementalTrajectoryMatch
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
        # Unit-norm embeddings for the semantic search; a zero embedding
        # stays zero, so it scores 0 against every query.
        self._embeddings_unit = np.zeros(
            (capacity, embedding_dim), dtype=np.float64
        )
        # The one copy of every map, layer-major, and its prefix squared
        # norms: the trajectory kernel's stored side.
        self._layer_maps = np.zeros(
            (num_layers, capacity, num_experts), dtype=np.float32
        )
        self._prefix_sq = np.zeros((num_layers, capacity), dtype=np.float32)
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
            expert_map=self.get_map(index).copy(),
        )

    def get_map(self, index: int) -> np.ndarray:
        """Stored expert map ``(L, J)`` float32 (a strided view)."""
        if not 0 <= index < self._size:
            raise ConfigError(f"record index {index} out of range")
        return self._layer_maps[:, index]

    def gather_maps(self, indices: np.ndarray) -> np.ndarray:
        """Stored maps for a batch of slots: ``(B, L, J)`` float32 copy.

        The batched form of :meth:`get_map` — one fancy index instead of
        one Python call per batch position.
        """
        indices = self._checked(indices)
        return np.ascontiguousarray(
            self._layer_maps[:, indices].swapaxes(0, 1)
        )

    def gather_rows(
        self, indices: np.ndarray, layer: int | np.ndarray
    ) -> np.ndarray:
        """Map rows for a batch of slots: ``(B, J)`` float32 copy of one
        layer, or, with an integer array ``layer`` that broadcasts against
        ``indices``, row ``layer[i]`` of slot ``indices[i]``:
        ``(*shape, J)``."""
        return self._layer_maps[layer, self._checked(indices)]

    def _checked(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size and (
            indices.min() < 0 or indices.max() >= self._size
        ):
            raise ConfigError("record index out of range")
        return indices

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
        emb = self._embeddings[slot].astype(np.float64)
        norm = float(np.linalg.norm(emb))
        self._embeddings_unit[slot] = emb / (norm if norm != 0.0 else 1.0)
        self._layer_maps[:, slot] = expert_map
        # Per-layer squared norms, then their left-to-right running sum:
        # the same folds the kernel applies to the query side.
        np.cumsum(
            (expert_map**2).sum(axis=1), out=self._prefix_sq[:, slot]
        )
        return slot

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
        """Unified redundancy score RDY (§4.4), shape ``(B, size)``.

        The trajectory term is the Eq. 5 kernel's full-prefix cosine of
        each ``(L, J)`` map in ``maps`` against every stored map.
        """
        if self.is_empty:
            raise ConfigError("redundancy undefined for an empty store")
        sem = self.semantic_scores(embeddings)
        traj = IncrementalTrajectoryMatch(self, len(maps)).full_scores(maps)
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
