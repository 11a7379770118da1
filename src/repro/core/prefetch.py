"""Similarity-aware expert selection and prefetch priorities (§4.3, §4.5).

Given a matched expert map row and the match's similarity score, fMoE
computes a dynamic selection threshold

    δ = clip(1 − score, 0, 1)

and prefetches the smallest set of highest-probability experts whose summed
probability exceeds δ (Eqs. 6–8), always more than the top-K the gate will
activate.  Low-confidence matches therefore hedge with more experts; high
confidence matches prefetch tightly, trimming memory traffic.

Prefetch issue order follows PRI = p / (l − l_now): likely experts on near
layers first.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def selection_threshold(score: float) -> float:
    """δ = clip(1 − score, 0, 1) for a cosine score in [−1, 1]."""
    return float(np.clip(1.0 - score, 0.0, 1.0))


def select_prefetch_experts(
    distribution: np.ndarray,
    threshold: float,
    top_k: int,
    max_count: int | None = None,
) -> np.ndarray:
    """Minimal high-probability expert set for one layer (Eqs. 6–8).

    Picks experts in descending probability until the cumulative
    probability exceeds ``threshold``, subject to the paper's constraint 8
    (strictly more experts than the ``top_k`` the gate activates, where the
    layer width allows) and an optional hedging cap ``max_count``.
    """
    distribution = np.asarray(distribution, dtype=np.float64)
    if distribution.ndim != 1:
        raise ConfigError("distribution must be 1-D")
    num_experts = distribution.shape[0]
    if not 1 <= top_k <= num_experts:
        raise ConfigError(f"top_k must be in [1, {num_experts}]")
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError("threshold must be in [0, 1]")
    min_needed = min(top_k + 1, num_experts)
    cap = num_experts if max_count is None else min(max_count, num_experts)
    cap = max(cap, min_needed)
    order = np.argsort(distribution)[::-1]
    cumulative = np.cumsum(distribution[order])
    count = int(np.searchsorted(cumulative, threshold) + 1)
    count = max(count, min_needed)
    count = min(count, cap)
    return order[:count]


def select_prefetch_counts(
    rows: np.ndarray,
    thresholds: np.ndarray,
    top_k: int,
    max_count: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`select_prefetch_experts` over N independent rows.

    ``rows`` is ``(N, J)`` float64, ``thresholds`` is ``(N,)``.  Returns
    ``(order, counts)``: the descending-probability argsort per row and how
    many leading entries of each row are selected, so lane ``i``'s set is
    ``order[i, :counts[i]]`` — element-for-element what the scalar function
    returns for ``(rows[i], thresholds[i])``.  Per-lane identity holds
    bitwise: an axis argsort applies the same algorithm to each lane, the
    cumulative sums are the same left folds, and counting ``cumulative <
    threshold`` over a nondecreasing cumulative equals the scalar path's
    left ``searchsorted``.
    """
    num_experts = rows.shape[1]
    if not 1 <= top_k <= num_experts:
        raise ConfigError(f"top_k must be in [1, {num_experts}]")
    min_needed = min(top_k + 1, num_experts)
    cap = num_experts if max_count is None else min(max_count, num_experts)
    cap = max(cap, min_needed)
    order = np.argsort(rows, axis=1)[:, ::-1]
    lanes = np.arange(rows.shape[0])[:, None]
    cumulative = np.cumsum(rows[lanes, order], axis=1)
    counts = (cumulative < thresholds[:, None]).sum(axis=1) + 1
    return order, np.minimum(np.maximum(counts, min_needed), cap)


def prefetch_priority(
    probability: float, layer: int, current_layer: int
) -> float:
    """PRI_prefetch = p / (l − l_now): near, likely experts first (§4.5)."""
    gap = layer - current_layer
    if gap <= 0:
        raise ConfigError(
            f"prefetch target layer {layer} must be past current "
            f"layer {current_layer}"
        )
    return probability / gap
