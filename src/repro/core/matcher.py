"""The Expert Map Matcher (paper §4.2).

Two fine-grained search modes over the Expert Map Store:

- *Semantic search* — for the first ``d`` layers (before any trajectory is
  observable), match the request's embedding against stored embeddings
  (Eq. 4) and borrow the matched iteration's initial map rows.
- *Trajectory search* — once ``l`` layers of the current iteration have
  been observed, match the partial trajectory against stored map prefixes
  (Eq. 5) and borrow the matched map's row for layer ``l + d``.

Eq. 5 has one implementation, :class:`IncrementalTrajectoryMatch`: a
float32 session per iteration that folds any number of layers' gate rows
per call and answers the match at every prefix observed.  The serving
policy's iteration plan folds its layers in one call; the store's
redundancy score (RDY) takes the session's full-prefix value; the offline
evaluators (hit-rate tracking, Pearson, coverage, store capacity) fold
layer by layer.

The matcher also carries the virtual-latency model for one batched match
(a base cost plus a per-stored-record term), which the asynchronous policy
reports as off-critical-path overhead (Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.core.store import ExpertMapStore


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one batched store search."""

    indices: np.ndarray
    """Best-matching store slot per query, shape ``(B,)`` (``(n, B)``
    for a block of layers)."""

    scores: np.ndarray
    """Cosine similarity of the best match per query, same shape."""

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


class IncrementalTrajectoryMatch:
    """Streaming trajectory search: the one Eq. 5 kernel.

    A naive trajectory search at layer ``l`` recomputes the full prefix
    cosine — O(C·l·J) work per layer, O(C·L²·J) per iteration.  Because
    both the dot products and the squared norms are sums over layers, they
    can be kept as running sums as layers arrive, making the whole
    iteration O(C·L·J) — the same asymptotic cost as a single full match.
    This mirrors the efficiency concern behind the paper's "negligible
    overhead" claim (§4.2).

    Everything is float32 over the store's one float32 map array.  A call
    may fold any number of layers: their products are one batched matmul
    against the contiguous ``(n, C, J)`` block, and the running sums are
    left-to-right adds over the layer axis, so folding ``n`` layers in one
    call lands on the same bits as ``n`` one-layer calls.  The stored
    side's norms are read from the store's cached prefix.  The session
    matches against the records the store held when it began.
    """

    def __init__(self, store: ExpertMapStore, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.store = store
        self.batch_size = batch_size
        self.layers_observed = 0
        self._size = len(store)
        self._dots = np.zeros((batch_size, self._size), dtype=np.float32)
        self._query_sq = np.zeros(batch_size, dtype=np.float32)

    def observe_layer(self, rows: np.ndarray) -> MatchResult | None:
        """Fold in one layer's gate outputs, shape ``(B, J)``; match."""
        rows = np.atleast_2d(rows)
        result = self.observe_layers(rows[:, None, :])
        if result is None:
            return None
        return MatchResult(indices=result.indices[0], scores=result.scores[0])

    def observe_layers(self, rows: np.ndarray) -> MatchResult | None:
        """Fold in ``n`` consecutive layers' gate outputs, ``(B, n, J)``.

        Returns the best slot and its score at every new prefix, both
        ``(n, B)``; None for an empty store.
        """
        folded = self._fold(rows)
        if folded is None:
            return None
        scores = _cosines(*folded)
        best = scores.argmax(axis=2)
        return MatchResult(indices=best, scores=scores.max(axis=2))

    def full_scores(self, maps: np.ndarray) -> np.ndarray:
        """Cosine of whole ``(B, L, J)`` maps against every stored map:
        the full-prefix scores, ``(B, C)``, of a fresh session over a
        non-empty store."""
        dots, query_sq, stored_sq = self._fold(maps)
        return _cosines(dots[-1], query_sq[-1], stored_sq[-1])

    def _fold(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Running dots ``(n, B, C)``, query and stored squared norms
        ``(n, B)`` and ``(n, C)`` at each of the ``n`` new prefixes."""
        rows = np.asarray(rows, dtype=np.float32)
        if rows.ndim != 3 or rows.shape[0] != self.batch_size:
            raise ValueError(
                f"expected batch {self.batch_size}, got shape {rows.shape}"
            )
        first = self.layers_observed
        stop = first + rows.shape[1]
        if not first < stop <= self.store.num_layers:
            raise ValueError(
                f"cannot fold {rows.shape[1]} layers: {first} of "
                f"{self.store.num_layers} already observed"
            )
        size = self._size
        if size == 0:
            return None
        queries = np.ascontiguousarray(rows.swapaxes(0, 1))
        block = self.store._layer_maps[first:stop, :size]
        dots = np.matmul(queries, block.swapaxes(1, 2))
        query_sq = (queries**2).sum(axis=2)
        dots[0] += self._dots
        query_sq[0] += self._query_sq
        # In-place adds down the layer axis (a left fold, like the
        # one-layer calls); np.cumsum along axis 0 is far slower here.
        layers = list(dots)
        for previous, current in zip(layers, layers[1:]):
            current += previous
        np.cumsum(query_sq, axis=0, out=query_sq)
        self._dots = dots[-1]
        self._query_sq = query_sq[-1]
        self.layers_observed = stop
        return dots, query_sq, self.store._prefix_sq[first:stop, :size]


def _cosines(
    dots: np.ndarray, query_sq: np.ndarray, stored_sq: np.ndarray
) -> np.ndarray:
    """``dots / sqrt(query_sq ⊗ stored_sq)`` over the trailing two axes;
    a zero norm scores 0, the cosine convention for zero rows."""
    # einsum forms the outer product of norms faster than a broadcast
    # multiply; each entry is the same one rounded product.
    denom = np.einsum("...b,...c->...bc", query_sq, stored_sq)
    np.sqrt(denom, out=denom)
    denom[denom == 0.0] = 1.0
    return np.divide(dots, denom, out=denom)
