"""Hindsight-optimal prefetching: an upper bound, not a paper baseline.

Knows each iteration's true activations the moment the iteration starts and
prefetches exactly those experts, honoring the prefetch distance (layers
closer than the distance at iteration start cannot be hidden).  Used by the
extension benches to quantify how much headroom remains above fMoE.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BasePolicy, LFUTracker
from repro.errors import ConfigError
from repro.serving.engine import IterationContext, PolicyAction
from repro.types import ExpertId


class OraclePolicy(BasePolicy):
    """Prefetches the ground-truth activation set of every layer."""

    name = "oracle"

    def __init__(self, prefetch_distance: int = 3) -> None:
        super().__init__()
        if prefetch_distance < 1:
            raise ConfigError("prefetch_distance must be >= 1")
        self.prefetch_distance = prefetch_distance
        # Belady bookkeeping for the in-flight iteration: the next layer
        # (>= compute front) at which each expert is known to be needed.
        self._next_use: dict[ExpertId, int] = {}
        self._front = 0

    def attach(self, engine) -> None:
        super().attach(engine)
        self._lfu = LFUTracker(
            self.config.num_layers, self.config.experts_per_layer
        )

    def _block(
        self, ctx: IterationContext, layer: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every request's true activations of ``layer``, request-major."""
        width = self.config.experts_per_layer
        experts = np.concatenate(ctx.oracle_activated_at(layer))
        ids = (layer * width + experts).astype(np.int64)
        return ids, np.full(len(ids), float(self.config.num_layers - layer))

    def on_iteration_start(self, ctx: IterationContext) -> PolicyAction:
        # Perfect predictions, same issue window as fMoE: the first d
        # layers at iteration start, then d layers ahead of the compute
        # front — so the bound isolates prediction quality, not timing.
        self._front = 0
        self._next_use = {}
        for layer in range(self.config.num_layers):
            for activated in ctx.oracle_activated_at(layer):
                for j in activated:
                    self._next_use.setdefault(ExpertId(layer, int(j)), layer)
        layers = range(min(self.prefetch_distance, self.config.num_layers))
        return PolicyAction(
            prefetch_block=self.concat_blocks(
                [self._block(ctx, layer) for layer in layers]
            )
        )

    def on_gate_output(
        self, ctx: IterationContext, layer: int
    ) -> PolicyAction:
        self._front = layer
        target = layer + self.prefetch_distance
        if target >= self.config.num_layers:
            return PolicyAction()
        return PolicyAction(prefetch_block=self._block(ctx, target))

    def on_iteration_end(self, ctx: IterationContext) -> None:
        self._next_use = {}
        self._front = 0

    def on_expert_served(self, expert: ExpertId, hit: bool, now: float) -> None:
        self._lfu.touch(expert, now)
        # This layer's use is spent; the expert's remaining value is
        # whatever later layer (if any) activates it again.
        if self._next_use.get(expert, -1) <= expert.layer:
            self._next_use.pop(expert, None)

    def eviction_score_matrix(self, now: float) -> np.ndarray:
        # Belady with hindsight: an expert still needed this iteration is
        # kept (negative score, sooner use → kept longer); everything else
        # falls back to LFU (positive score) and is evicted first.
        scores = self._lfu.eviction_score_matrix(now)
        width = self.config.experts_per_layer
        for expert, next_use in self._next_use.items():
            if next_use >= self._front:
                scores[expert.layer * width + expert.expert] = float(
                    next_use - self.config.num_layers
                )
        return scores
