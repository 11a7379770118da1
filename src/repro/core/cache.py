"""fMoE's expert-cache eviction scoring (paper §4.5).

Eviction priority integrates the searched map's probabilities with visit
frequency:

    PRI_evict = 1 / (p · freq)

so rarely hit experts with low predicted activation probability leave
first.  As the paper argues, recency (LRU) is deliberately ignored: expert
use is layer-sequential, so the most recently used expert is the one
*least* likely to be needed next.

The scorer keeps visit counts in a flat Python list indexed by
``layer * J + j``, because ``touch`` updates one cell per served expert
and a list cell costs a fraction of a numpy scalar access.  Predictions,
clamped visit counts and scores are flat float64 ``(L·J,)`` vectors, so a
prediction merge or a finished layer rewrites its row in place with three
numpy calls whatever the layer's width.  The score vector the pool's
victim scan reads (:meth:`FMoECacheScorer.score_matrix`, surfaced to the
pool as the policy's ``eviction_score_matrix``) is always current:
``touch`` writes one cell, a row update rewrites one row and the
per-iteration reset rewrites the whole vector.  Every write computes
``1 / (max(p, floor) · max(freq, 1))`` with the same IEEE operations, so
the vector is bitwise identical to a from-scratch rebuild.
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
        size = num_layers * num_experts
        self._freq = [0] * size
        self._visits = np.ones(size)
        """``max(freq, 1)`` as float64, for the row rewrites."""
        self._predicted = np.zeros(size)
        self._scores = np.empty(size)
        self._rescore(0, size)

    def _rescore(self, start: int, stop: int) -> None:
        """Recompute ``_scores[start:stop]`` in place."""
        scores = self._scores[start:stop]
        np.maximum(self._predicted[start:stop], self.MIN_PROBABILITY, out=scores)
        np.multiply(scores, self._visits[start:stop], out=scores)
        np.divide(1.0, scores, out=scores)

    def _row(self, layer: int) -> tuple[int, int]:
        """The flat ``[start, stop)`` bounds of ``layer``'s row."""
        if not 0 <= layer < self.num_layers:
            raise ConfigError(f"layer {layer} out of range")
        start = layer * self.num_experts
        return start, start + self.num_experts

    def reset_predictions(self) -> None:
        """Clear per-iteration predictions (called at iteration start)."""
        self._predicted.fill(0.0)
        self._rescore(0, self._predicted.size)

    def mark_layer_done(self, layer: int) -> None:
        """Drop predictions for a layer the forward pass has moved past.

        Expert use is layer-sequential (§4.5): an expert just served is the
        one needed furthest in the future, so clearing its prediction makes
        it the preferred eviction victim for upcoming prefetches.
        """
        start, stop = self._row(layer)
        self._predicted[start:stop] = 0.0
        self._rescore(start, stop)

    def update_prediction_row(self, layer: int, row: np.ndarray) -> None:
        """Merge a matched map row for ``layer`` (element-wise maximum).

        With batched requests several maps guide the same iteration; the
        maximum keeps any expert predicted by any request protected.
        """
        start, stop = self._row(layer)
        predicted = self._predicted[start:stop]
        np.maximum(predicted, row, out=predicted)
        self._rescore(start, stop)

    def predicted_probability(self, expert: ExpertId) -> float:
        """Latest matched-map probability for ``expert`` (0 if none)."""
        flat = expert.layer * self.num_experts + expert.expert
        return self._predicted.item(flat)

    def touch(self, expert: ExpertId) -> None:
        """Record one cache visit (hit or post-load use)."""
        flat = expert.layer * self.num_experts + expert.expert
        freq = self._freq[flat] + 1
        self._freq[flat] = freq
        self._visits[flat] = freq
        p = self._predicted.item(flat)
        if p < self.MIN_PROBABILITY:
            p = self.MIN_PROBABILITY
        self._scores[flat] = 1.0 / (p * freq)

    def frequency(self, expert: ExpertId) -> int:
        """Recorded cache visits of ``expert``."""
        return self._freq[expert.layer * self.num_experts + expert.expert]

    def score_matrix(self) -> np.ndarray:
        """The dense flat ``(L·J,)`` float64 eviction-score vector, kept
        current.

        Entry ``layer * num_experts + expert`` is PRI_evict = 1 / (p ·
        freq) with p clamped below at :attr:`MIN_PROBABILITY` and freq at
        1 (int→float promotion, one divide); larger → evicted earlier.
        The row and cell writes compute the same expression, so the
        vector is bitwise identical however it was built.  The vector is
        the scorer's own: callers read it and must not write it.
        """
        return self._scores
