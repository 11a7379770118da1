"""Offline hit-rate evaluation of expert pattern trackers (Figs. 4, 12a).

Evaluates *prediction containment*: for each test iteration and each layer,
a tracker predicts the expert set to prefetch at the configured prefetch
distance; the hit rate is the fraction of actually-activated experts that
the prediction contained.  No cache or transfer timing is involved — this
isolates tracking quality exactly the way the paper's Fig. 4 and ablation
Fig. 12a do.

Trackers:

- *fine-grained* — fMoE's expert-map search (semantic for the first ``d``
  layers, trajectory beyond), with optional dynamic-threshold selection;
- *coarse-grained* — MoE-Infinity's request-level Expert Activation Matrix
  matching with global-popularity fallback for initial layers;
- *speculative* — hidden-state speculation (Mixtral-Offloading / ProMoE),
  modeled by the bounded-noise oracle; it cannot predict the first ``d``
  layers (there is no hidden state before compute starts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.matcher import ExpertMapMatcher
from repro.core.prefetch import select_prefetch_experts, selection_threshold
from repro.core.store import ExpertMapStore
from repro.errors import ConfigError
from repro.moe.config import MoEModelConfig
from repro.moe.embeddings import cosine_similarity_matrix
from repro.moe.gating import softmax_rows, top_k_indices
from repro.workloads.profiler import RequestTrace


@dataclass(frozen=True)
class TrackerHitRates:
    """Hit rate of one tracker at one prefetch distance."""

    name: str
    distance: int
    hit_rate: float
    samples: int


def _containment(activated: np.ndarray, predicted: np.ndarray) -> tuple[int, int]:
    """(hits, total) for one layer's activated set vs predicted set."""
    predicted_set = set(int(j) for j in predicted)
    hits = sum(1 for j in activated if int(j) in predicted_set)
    return hits, len(activated)


def build_store(
    config: MoEModelConfig,
    warm_traces: Sequence[RequestTrace],
    distance: int,
    capacity: int = 1024,
) -> ExpertMapStore:
    """Populate an Expert Map Store from profiled history."""
    store = ExpertMapStore(
        capacity=capacity,
        num_layers=config.num_layers,
        num_experts=config.experts_per_layer,
        embedding_dim=config.embedding_dim,
        prefetch_distance=min(distance, config.num_layers),
    )
    for trace in warm_traces:
        for iteration_map in trace.iteration_maps:
            store.add(trace.embedding, iteration_map)
    return store


def evaluate_fine_grained(
    config: MoEModelConfig,
    warm_traces: Sequence[RequestTrace],
    test_traces: Sequence[RequestTrace],
    distance: int,
    capacity: int = 1024,
    use_semantic: bool = True,
    dynamic_threshold: bool = True,
    max_prefetch_factor: float = 4.0,
) -> TrackerHitRates:
    """fMoE's expert-map tracking (the paper's Map(T)/Map(T+S)/Map(T+S+δ))."""
    if distance < 1:
        raise ConfigError("distance must be >= 1")
    store = build_store(config, warm_traces, distance, capacity)
    matcher = ExpertMapMatcher(store)
    top_k = config.top_k
    cap = int(np.ceil(max_prefetch_factor * top_k))
    hits = total = 0

    def select(row: np.ndarray, score: float) -> np.ndarray:
        if dynamic_threshold:
            return select_prefetch_experts(
                row, selection_threshold(score), top_k, max_count=cap
            )
        return np.argsort(row)[::-1][:top_k]

    for trace in test_traces:
        embedding = trace.embedding[None, :]
        semantic = matcher.match_semantic(embedding) if use_semantic else None
        for iteration_map, activated in zip(
            trace.iteration_maps, trace.iteration_activated
        ):
            # Initial layers [0, d): semantic search (or unpredicted).
            for layer in range(min(distance, config.num_layers)):
                if semantic is None:
                    total += len(activated[layer])
                    continue
                row = matcher.matched_row(semantic, 0, layer)
                h, t = _containment(
                    activated[layer],
                    select(row, float(semantic.scores[0])),
                )
                hits, total = hits + h, total + t
            # Later layers: trajectory search from the observed prefix,
            # folding one layer into the iteration's session at a time.
            session = matcher.incremental_session(1)
            for layer in range(config.num_layers - distance):
                target = layer + distance
                result = session.observe_layer(iteration_map[layer][None, :])
                assert result is not None
                row = matcher.matched_row(result, 0, target)
                h, t = _containment(
                    activated[target],
                    select(row, float(result.scores[0])),
                )
                hits, total = hits + h, total + t
    return TrackerHitRates(
        name="fine-grained",
        distance=distance,
        hit_rate=hits / total if total else 0.0,
        samples=total,
    )


def evaluate_coarse_grained(
    config: MoEModelConfig,
    warm_traces: Sequence[RequestTrace],
    test_traces: Sequence[RequestTrace],
    distance: int,
    width_factor: float = 1.0,
) -> TrackerHitRates:
    """MoE-Infinity's request-level EAM tracking (the paper's Hit count)."""
    if distance < 1:
        raise ConfigError("distance must be >= 1")
    if not warm_traces:
        raise ConfigError("coarse tracker needs warm history")
    eams = np.stack(
        [t.activation_counts().ravel() for t in warm_traces]
    ).astype(np.float64)
    eams /= np.linalg.norm(eams, axis=1, keepdims=True)
    grids = [t.activation_counts() for t in warm_traces]
    popularity = np.sum(grids, axis=0)
    width = int(np.ceil(config.top_k * width_factor))
    hits = total = 0
    for trace in test_traces:
        counts = np.zeros(
            (config.num_layers, config.experts_per_layer), dtype=np.float64
        )
        for activated in trace.iteration_activated:
            for layer in range(min(distance, config.num_layers)):
                predicted = np.argsort(popularity[layer])[::-1][:width]
                h, t = _containment(activated[layer], predicted)
                hits, total = hits + h, total + t
            for layer in range(config.num_layers - distance):
                target = layer + distance
                counts[layer, activated[layer]] += 1.0
                scores = cosine_similarity_matrix(
                    counts.ravel()[None, :], eams
                )[0]
                best = int(np.argmax(scores))
                predicted = np.argsort(grids[best][target])[::-1][:width]
                h, t = _containment(activated[target], predicted)
                hits, total = hits + h, total + t
            # The tail layers' counts also accumulate into the request EAM.
            for layer in range(
                max(config.num_layers - distance, 0), config.num_layers
            ):
                counts[layer, activated[layer]] += 1.0
    return TrackerHitRates(
        name="coarse-grained",
        distance=distance,
        hit_rate=hits / total if total else 0.0,
        samples=total,
    )


def evaluate_speculative(
    config: MoEModelConfig,
    test_traces: Sequence[RequestTrace],
    distance: int,
    noise_multiplier: float = 1.0,
    seed: int = 0,
) -> TrackerHitRates:
    """Hidden-state speculation (the paper's Speculate tracker)."""
    if distance < 1:
        raise ConfigError("distance must be >= 1")
    rng = np.random.default_rng(seed)
    noise_scale = (
        config.routing.speculation_noise * distance * noise_multiplier
    )
    hits = total = 0
    for trace in test_traces:
        for logits, activated in zip(
            trace.iteration_logits, trace.iteration_activated
        ):
            # No hidden state exists before layer 0 computes: the first d
            # layers are unpredictable for speculation.
            for layer in range(min(distance, config.num_layers)):
                total += len(activated[layer])
            for layer in range(config.num_layers - distance):
                target = layer + distance
                noisy = logits[target] + rng.gumbel(
                    0.0, noise_scale, config.experts_per_layer
                )
                predicted = top_k_indices(
                    softmax_rows(noisy[None, :])[0], config.top_k
                )
                h, t = _containment(activated[target], predicted)
                hits, total = hits + h, total + t
    return TrackerHitRates(
        name="speculative",
        distance=distance,
        hit_rate=hits / total if total else 0.0,
        samples=total,
    )
