"""Similarity-score / hit-rate correlation analysis (paper §4.3, Fig. 8).

For every test iteration, fMoE's two searches produce a cosine similarity
score and a guided prediction whose quality can be measured after the fact.
The paper computes Pearson correlation coefficients between the scores and
the resulting expert hit rates across three models and two datasets,
finding a solidly positive correlation — the empirical basis for the
similarity-aware threshold δ = clip(1 − score).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats

from repro.analysis.tracking import build_store, _containment
from repro.core.matcher import ExpertMapMatcher
from repro.core.prefetch import select_prefetch_experts, selection_threshold
from repro.errors import ConfigError
from repro.moe.config import MoEModelConfig
from repro.workloads.profiler import RequestTrace


@dataclass(frozen=True)
class CorrelationResult:
    """Pearson coefficients between match similarity and hit rate."""

    semantic_pearson: float
    trajectory_pearson: float
    semantic_samples: int
    trajectory_samples: int


def _pearson(xs: list[float], ys: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    if np.std(xs) == 0 or np.std(ys) == 0:
        return 0.0
    r, _ = stats.pearsonr(xs, ys)
    return float(r)


def similarity_hitrate_correlation(
    config: MoEModelConfig,
    warm_traces: Sequence[RequestTrace],
    test_traces: Sequence[RequestTrace],
    distance: int = 3,
    capacity: int = 1024,
    max_prefetch_factor: float = 4.0,
) -> CorrelationResult:
    """Reproduce the Fig. 8 methodology on profiled traces."""
    if distance < 1:
        raise ConfigError("distance must be >= 1")
    store = build_store(config, warm_traces, distance, capacity)
    matcher = ExpertMapMatcher(store)
    top_k = config.top_k
    cap = int(np.ceil(max_prefetch_factor * top_k))

    sem_scores: list[float] = []
    sem_hits: list[float] = []
    traj_scores: list[float] = []
    traj_hits: list[float] = []

    for trace in test_traces:
        semantic = matcher.match_semantic(trace.embedding[None, :])
        assert semantic is not None
        sem_score = float(semantic.scores[0])
        for iteration_map, activated in zip(
            trace.iteration_maps, trace.iteration_activated
        ):
            hits = total = 0
            for layer in range(min(distance, config.num_layers)):
                row = matcher.matched_row(semantic, 0, layer)
                selected = select_prefetch_experts(
                    row, selection_threshold(sem_score), top_k, max_count=cap
                )
                h, t = _containment(activated[layer], selected)
                hits, total = hits + h, total + t
            if total:
                sem_scores.append(sem_score)
                sem_hits.append(hits / total)

            session = matcher.incremental_session(1)
            for layer in range(config.num_layers - distance):
                target = layer + distance
                result = session.observe_layer(iteration_map[layer][None, :])
                assert result is not None
                score = float(result.scores[0])
                row = matcher.matched_row(result, 0, target)
                selected = select_prefetch_experts(
                    row, selection_threshold(score), top_k, max_count=cap
                )
                h, t = _containment(activated[target], selected)
                if t:
                    traj_scores.append(score)
                    traj_hits.append(h / t)

    return CorrelationResult(
        semantic_pearson=_pearson(sem_scores, sem_hits),
        trajectory_pearson=_pearson(traj_scores, traj_hits),
        semantic_samples=len(sem_scores),
        trajectory_samples=len(traj_scores),
    )
