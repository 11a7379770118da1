"""The Expert Map Matcher (paper §4.2).

Two fine-grained search modes over the Expert Map Store:

- *Semantic search* — for the first ``d`` layers (before any trajectory is
  observable), match the request's embedding against stored embeddings
  (Eq. 4) and borrow the matched iteration's initial map rows.
- *Trajectory search* — once ``l`` layers of the current iteration have
  been observed, match the partial trajectory against stored map prefixes
  (Eq. 5) and borrow the matched map's row for layer ``l + d``.

Eq. 5 has one implementation, :class:`IncrementalTrajectoryMatch`: a
session per iteration that folds each layer's gate rows in as they arrive
and answers the match at the prefix observed so far.  The serving policy
and the offline evaluators (hit-rate tracking, Pearson, coverage, store
capacity) all drive it.  :class:`ReferenceTrajectoryMatch` is the naive
full-refold oracle the scalar core and the parity suite compare it with.

The matcher also carries the virtual-latency model for one batched match
(a base cost plus a per-stored-record term), which the asynchronous policy
reports as off-critical-path overhead (Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.store import ExpertMapStore


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one batched store search."""

    indices: np.ndarray
    """Best-matching store slot per query, shape ``(B,)``."""

    scores: np.ndarray
    """Cosine similarity of the best match per query, shape ``(B,)``."""

    @property
    def batch_size(self) -> int:
        return self.indices.shape[0]


class ExpertMapMatcher:
    """Semantic search, trajectory sessions and a matching-cost model."""

    def __init__(
        self,
        store: ExpertMapStore,
        base_seconds: float = 5e-4,
        per_record_seconds: float = 2e-6,
    ) -> None:
        self.store = store
        self.base_seconds = base_seconds
        self.per_record_seconds = per_record_seconds

    def match_seconds(self) -> float:
        """Modeled latency of one batched match against the store."""
        return self.base_seconds + self.per_record_seconds * len(self.store)

    def match_semantic(self, embeddings: np.ndarray) -> MatchResult | None:
        """Best semantic match per query embedding; None if store empty."""
        if self.store.is_empty:
            return None
        scores = self.store.semantic_scores(embeddings)
        best = np.argmax(scores, axis=1)
        return MatchResult(
            indices=best,
            scores=scores[np.arange(scores.shape[0]), best],
        )

    def matched_row(self, result: MatchResult, pos: int, layer: int) -> np.ndarray:
        """Layer ``layer`` of the map matched for query ``pos``."""
        return self.store.get_map(int(result.indices[pos]))[layer]

    def incremental_session(self, batch_size: int) -> "IncrementalTrajectoryMatch":
        """Start an O(J·C)-per-layer trajectory match for one iteration."""
        return IncrementalTrajectoryMatch(self.store, batch_size)

    def reference_session(self, batch_size: int) -> "ReferenceTrajectoryMatch":
        """Start the naive full-refold trajectory match (scalar core)."""
        return ReferenceTrajectoryMatch(self.store, batch_size)


class IncrementalTrajectoryMatch:
    """Streaming trajectory search with per-layer incremental updates.

    A naive trajectory search at layer ``l`` recomputes the full prefix
    cosine — O(C·l·J) work per layer, O(C·L²·J) per iteration.  Because
    both the dot products and the squared norms are sums over layers, they
    can be maintained incrementally as each layer's gate output arrives,
    making every layer O(C·J) and the whole iteration O(C·L·J) — the same
    asymptotic cost as a single full match.  This mirrors the efficiency
    concern behind the paper's "negligible overhead" claim (§4.2).
    """

    def __init__(self, store: ExpertMapStore, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.store = store
        self.batch_size = batch_size
        self.layers_observed = 0
        size = len(store)
        self._dots = np.zeros((batch_size, size))
        self._query_sq = np.zeros(batch_size)
        self._stored_sq = np.zeros(size)

    def observe_layer(self, rows: np.ndarray) -> MatchResult | None:
        """Fold in one layer's gate outputs, shape ``(B, J)``; match."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[0] != self.batch_size:
            raise ValueError(
                f"expected batch {self.batch_size}, got {rows.shape[0]}"
            )
        if self.layers_observed >= self.store.num_layers:
            raise ValueError("all layers already observed")
        size = len(self.store)
        if size == 0:
            return None
        layer = self.layers_observed
        experts = self.store.num_experts
        # Sliced view of the float64 pre-flattened maps: no per-layer
        # astype copy of the stored rows.
        stored_rows = self.store._maps_flat[
            :size, layer * experts : (layer + 1) * experts
        ]
        self._dots += rows @ stored_rows.T
        self._query_sq += (rows**2).sum(axis=1)
        # The stored side's per-layer squared norms were computed with the
        # same per-row reduction at insertion time, so folding the cached
        # values is bitwise identical to re-squaring the stored rows here.
        self._stored_sq += self.store.layer_sq_norms(layer, size)
        self.layers_observed += 1
        if self.batch_size == 1:
            # Single-lane fast path: ``np.outer`` of a length-1 vector is
            # exactly the elementwise scalar product, so scores (and the
            # argmax) are bitwise identical to the batched expression with
            # far fewer temporaries.
            denom = np.sqrt(self._query_sq[0] * self._stored_sq)
            denom[denom == 0.0] = 1.0
            scores = self._dots[0] / denom
            best = int(np.argmax(scores))
            return MatchResult(
                indices=np.array([best]),
                scores=scores[best : best + 1],
            )
        denom = np.sqrt(
            np.outer(self._query_sq, self._stored_sq)
        )
        denom[denom == 0.0] = 1.0
        scores = self._dots / denom
        best = np.argmax(scores, axis=1)
        return MatchResult(
            indices=best,
            scores=scores[np.arange(self.batch_size), best],
        )


class ReferenceTrajectoryMatch:
    """The naive per-layer full-prefix trajectory search.

    This is the straightforward reading of the paper's Eq. 5: every layer,
    re-match the entire observed prefix against every stored map —
    O(C·l·J) work at layer ``l``, O(C·L²·J) per iteration.  It is the
    scalar reference interpreter the parity suite compares the columnar
    core against, and it is *bitwise identical* to
    :class:`IncrementalTrajectoryMatch` by construction: the refold adds
    the same per-layer ``rows @ stored.T`` products and squared-norm
    reductions in the same left-to-right order the incremental session
    folds them, so every float lands on the identical value.
    """

    def __init__(self, store: ExpertMapStore, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.store = store
        self.batch_size = batch_size
        self.layers_observed = 0
        self._rows: list[np.ndarray] = []

    def observe_layer(self, rows: np.ndarray) -> MatchResult | None:
        """Fold in one layer's gate outputs, then re-match from scratch."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[0] != self.batch_size:
            raise ValueError(
                f"expected batch {self.batch_size}, got {rows.shape[0]}"
            )
        if self.layers_observed >= self.store.num_layers:
            raise ValueError("all layers already observed")
        size = len(self.store)
        if size == 0:
            return None
        self._rows.append(rows)
        self.layers_observed += 1
        experts = self.store.num_experts
        dots = np.zeros((self.batch_size, size))
        query_sq = np.zeros(self.batch_size)
        stored_sq = np.zeros(size)
        for layer, observed in enumerate(self._rows):
            # Read the store the way a straightforward implementation
            # would: the float32 maps as stored, upcast for the math
            # (exact, so the scores stay bitwise identical to the
            # incremental session's pre-flattened float64 cache).
            stored_rows = self.store._maps[:size, layer].astype(np.float64)
            dots += observed @ stored_rows.T
            query_sq += (observed**2).sum(axis=1)
            stored_sq += (stored_rows**2).sum(axis=1)
        denom = np.sqrt(np.outer(query_sq, stored_sq))
        denom[denom == 0.0] = 1.0
        scores = dots / denom
        best = np.argmax(scores, axis=1)
        return MatchResult(
            indices=best,
            scores=scores[np.arange(self.batch_size), best],
        )
