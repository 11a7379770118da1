"""MoE-Infinity baseline: request-level Expert Activation Matrix tracking.

Xue et al.'s design as characterized by the paper (§2.4, §6.1): each served
request contributes an Expert Activation Matrix (EAM) — per-(layer, expert)
activation *counts* aggregated over all of the request's iterations.  At
serving time the current request's partial counts are cosine-matched against
the EAM collection and the matched EAM's most-activated experts are
prefetched for upcoming layers; the first ``d`` layers fall back to global
expert popularity.  Prediction runs synchronously with inference (a fixed
per-layer cost), and the cache is LFU.

Because counts aggregate over iterations, the matched patterns are
coarse-grained: near-uniform under load-balanced routing, which is exactly
the weakness fMoE's iteration-level expert maps fix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.base import BasePolicy, LFUTracker
from repro.errors import ConfigError
from repro.moe.embeddings import cosine_similarity_matrix
from repro.serving.engine import IterationContext, PolicyAction
from repro.types import ExpertId


class MoEInfinityPolicy(BasePolicy):
    """EAM-guided prefetching with an LFU cache."""

    name = "moe-infinity"

    PREDICT_SECONDS = 0.0008
    """Modeled synchronous prediction cost per prediction point."""

    def __init__(
        self,
        prefetch_distance: int = 3,
        max_matrices: int = 4096,
        prefetch_width_factor: float = 2.0,
    ) -> None:
        super().__init__()
        if prefetch_distance < 1:
            raise ConfigError("prefetch_distance must be >= 1")
        if prefetch_width_factor < 1.0:
            raise ConfigError("prefetch_width_factor must be >= 1")
        self.prefetch_distance = prefetch_distance
        self.max_matrices = max_matrices
        self.prefetch_width_factor = prefetch_width_factor
        self._eams: list[np.ndarray] = []  # flattened normalized counts
        self._eam_grids: list[np.ndarray] = []  # (L, J) raw counts
        self._popularity: np.ndarray | None = None
        # Partial activation counts of in-flight requests, keyed by request
        # id: batch membership can shrink as requests finish early.
        self._request_counts: dict[int, np.ndarray] = {}

    def attach(self, engine) -> None:
        super().attach(engine)
        self._lfu = LFUTracker(
            self.config.num_layers, self.config.experts_per_layer
        )

    # ------------------------------------------------------------------ #
    # History
    # ------------------------------------------------------------------ #

    def warm(self, traces: Sequence) -> None:
        for trace in traces:
            self._add_eam(trace.activation_counts())

    def _add_eam(self, counts: np.ndarray) -> None:
        if counts.sum() == 0:
            return
        if len(self._eams) >= self.max_matrices:
            self._eams.pop(0)
            self._eam_grids.pop(0)
        flat = counts.ravel().astype(np.float64)
        flat = flat / np.linalg.norm(flat)
        self._eams.append(flat)
        self._eam_grids.append(counts.copy())
        if self._popularity is None:
            self._popularity = counts.copy()
        else:
            self._popularity += counts

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #

    def on_request_start(self, request, embedding) -> None:
        config = self.config
        self._request_counts[request.request_id] = np.zeros(
            (config.num_layers, config.experts_per_layer)
        )

    def on_request_end(self, request) -> None:
        counts = self._request_counts.pop(request.request_id, None)
        if counts is not None:
            self._add_eam(counts)

    def on_iteration_start(self, ctx: IterationContext) -> PolicyAction:
        config = self.config
        if self._popularity is None:
            return PolicyAction()
        # Initial layers: coarse rule — globally most popular experts.
        width = self._prefetch_width()
        block = self.concat_blocks(
            [
                self.topk_block(layer, self._popularity[layer], width)
                for layer in range(
                    min(self.prefetch_distance, config.num_layers)
                )
            ]
        )
        return PolicyAction(
            prefetch_block=block,
            sync_overheads={"predict": self.PREDICT_SECONDS},
        )

    def on_gate_output(
        self, ctx: IterationContext, layer: int
    ) -> PolicyAction:
        counts = [
            self._request_counts[r.request_id] for r in ctx.requests
        ]
        for grid, activated in zip(counts, ctx.activated_at(layer)):
            grid[layer, activated] += 1.0
        target = layer + self.prefetch_distance
        if target >= self.config.num_layers or not self._eams:
            return PolicyAction(
                sync_overheads={"predict": self.PREDICT_SECONDS}
            )
        stored = np.stack(self._eams)
        partial = np.stack([grid.ravel() for grid in counts])
        scores = cosine_similarity_matrix(partial, stored)
        width = self._prefetch_width()
        block = self.concat_blocks(
            [
                self.topk_block(
                    target, self._eam_grids[int(np.argmax(row))][target], width
                )
                for row in scores
            ]
        )
        return PolicyAction(
            prefetch_block=block,
            sync_overheads={"predict": self.PREDICT_SECONDS},
        )

    def _prefetch_width(self) -> int:
        """Experts prefetched per layer: EAM rows rank more than top-K."""
        return int(
            np.ceil(self.config.top_k * self.prefetch_width_factor)
        )

    def on_expert_served(self, expert: ExpertId, hit: bool, now: float) -> None:
        self._lfu.touch(expert, now)

    def eviction_score_matrix(self, now: float) -> np.ndarray:
        return self._lfu.eviction_score_matrix(now)
