"""fMoE's expert-cache eviction scoring (paper §4.5).

Eviction priority integrates the searched map's probabilities with visit
frequency:

    PRI_evict = 1 / (p · freq)

so rarely hit experts with low predicted activation probability leave
first.  As the paper argues, recency (LRU) is deliberately ignored: expert
use is layer-sequential, so the most recently used expert is the one
*least* likely to be needed next.

The scorer keeps its state in dense ``(L, J)`` arrays so the pool's
victim scan reads every candidate's score from one flat matrix
(:meth:`FMoECacheScorer.score_matrix`, surfaced to the pool as the
policy's ``eviction_score_matrix``).  The score matrix is maintained
incrementally — ``touch`` updates one cell, prediction merges refresh one
row, and only the per-iteration reset triggers a lazy full rebuild — so
keeping it current costs O(J) per mutation instead of O(L·J) per query.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.types import ExpertId


class FMoECacheScorer:
    """The 1/(p·freq) eviction oracle backed by the latest matched maps."""

    #: Probability floor for experts absent from the matched maps, so
    #: unpredicted experts are evictable but the score stays finite.
    MIN_PROBABILITY = 1e-3

    def __init__(self, num_layers: int, num_experts: int) -> None:
        if num_layers < 1 or num_experts < 1:
            raise ConfigError("num_layers and num_experts must be >= 1")
        self.num_layers = num_layers
        self.num_experts = num_experts
        self._freq = np.zeros((num_layers, num_experts), dtype=np.int64)
        self._predicted = np.zeros((num_layers, num_experts))
        self._scores: np.ndarray | None = None

    def _refresh_score_row(self, layer: int) -> None:
        if self._scores is not None:
            self._scores[layer] = 1.0 / (
                np.maximum(self._predicted[layer], self.MIN_PROBABILITY)
                * np.maximum(self._freq[layer], 1)
            )

    def reset_predictions(self) -> None:
        """Clear per-iteration predictions (called at iteration start)."""
        self._predicted.fill(0.0)
        self._scores = None

    def mark_layer_done(self, layer: int) -> None:
        """Drop predictions for a layer the forward pass has moved past.

        Expert use is layer-sequential (§4.5): an expert just served is the
        one needed furthest in the future, so clearing its prediction makes
        it the preferred eviction victim for upcoming prefetches.
        """
        if not 0 <= layer < self.num_layers:
            raise ConfigError(f"layer {layer} out of range")
        self._predicted[layer].fill(0.0)
        self._refresh_score_row(layer)

    def update_prediction_row(self, layer: int, row: np.ndarray) -> None:
        """Merge a matched map row for ``layer`` (element-wise maximum).

        With batched requests several maps guide the same iteration; the
        maximum keeps any expert predicted by any request protected.
        """
        if not 0 <= layer < self.num_layers:
            raise ConfigError(f"layer {layer} out of range")
        np.maximum(self._predicted[layer], row, out=self._predicted[layer])
        self._refresh_score_row(layer)

    def predicted_probability(self, expert: ExpertId) -> float:
        """Latest matched-map probability for ``expert`` (0 if none)."""
        return float(self._predicted[expert.layer, expert.expert])

    def touch(self, expert: ExpertId) -> None:
        """Record one cache visit (hit or post-load use)."""
        layer, index = expert.layer, expert.expert
        freq = self._freq[layer, index] + 1
        self._freq[layer, index] = freq
        if self._scores is not None:
            p = self._predicted[layer, index]
            if p < self.MIN_PROBABILITY:
                p = self.MIN_PROBABILITY
            self._scores[layer, index] = 1.0 / (p * freq)

    def frequency(self, expert: ExpertId) -> int:
        """Recorded cache visits of ``expert``."""
        return int(self._freq[expert.layer, expert.expert])

    def score_matrix(self) -> np.ndarray:
        """The dense flat ``(L·J,)`` eviction-score matrix, kept current.

        Entry ``layer * num_experts + expert`` is PRI_evict = 1 / (p ·
        freq) with p clamped below at :attr:`MIN_PROBABILITY` and freq at
        1 (int→float promotion, one divide); larger → evicted earlier.
        The incremental row and cell updates compute the same expression,
        so the matrix is bitwise identical however it was built.
        """
        if self._scores is None:
            self._scores = 1.0 / (
                np.maximum(self._predicted, self.MIN_PROBABILITY)
                * np.maximum(self._freq, 1)
            )
        return self._scores.reshape(-1)
