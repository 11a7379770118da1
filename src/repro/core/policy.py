"""The assembled fMoE offloading policy (paper §3.2 workflow, §4 design).

Per iteration the policy follows the paper's five steps:

1. *Context collection* (synchronous, cheap): embeddings + observed
   trajectory views.
2. *Expert map matching*: semantic search guides the first ``d`` layers at
   iteration start; trajectory search fires after every revealed layer for
   layer ``l + d``.  Matching is asynchronous — it delays when prefetch
   instructions reach the PCIe queue but never blocks compute.
3. *Guided prefetching*: similarity-aware thresholds δ = clip(1 − score)
   choose how many experts to hedge with; issue order follows
   PRI = p / (l − l_now).
4. *Serving*: the engine resolves hits/misses against the pool; the policy
   supplies the 1/(p·freq) eviction priority.
5. *Map update*: the completed iteration's context is inserted into the
   store (with redundancy-based deduplication once at capacity).

Ablation switches reproduce the paper's Fig. 12a variants: trajectory-only
(``use_semantic=False``), no dynamic threshold (``dynamic_threshold=False``
prefetches a fixed top-K), and the full design.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.baselines.base import BasePolicy, LFUTracker, LRUTracker
from repro.core.cache import FMoECacheScorer
from repro.core.matcher import (
    ExpertMapMatcher,
    IncrementalTrajectoryMatch,
    ReferenceTrajectoryMatch,
)
from repro.core.overheads import OverheadModel
from repro.core.prefetch import (
    prefetch_priority,
    select_prefetch_counts,
    select_prefetch_experts,
    selection_threshold,
)
from repro.core.store import ExpertMapStore
from repro.errors import ConfigError
from repro.serving.engine import (
    IterationContext,
    PolicyAction,
    PrefetchInstruction,
)
from repro.types import ExpertId


class FMoEPolicy(BasePolicy):
    """Fine-grained expert offloading with expert-map guidance."""

    name = "fmoe"

    def __init__(
        self,
        prefetch_distance: int = 3,
        store_capacity: int = 1024,
        use_semantic: bool = True,
        use_trajectory: bool = True,
        dynamic_threshold: bool = True,
        max_prefetch_factor: float = 4.0,
        overheads: OverheadModel | None = None,
        update_store_online: bool = True,
        eviction_algorithm: str = "fmoe",
        shared_store: ExpertMapStore | None = None,
    ) -> None:
        super().__init__()
        if prefetch_distance < 1:
            raise ConfigError("prefetch_distance must be >= 1")
        if store_capacity < 1:
            raise ConfigError("store_capacity must be >= 1")
        if max_prefetch_factor < 1.0:
            raise ConfigError("max_prefetch_factor must be >= 1")
        if not (use_semantic or use_trajectory):
            raise ConfigError(
                "at least one of semantic/trajectory search must be enabled"
            )
        if eviction_algorithm not in ("fmoe", "lru", "lfu"):
            raise ConfigError(
                "eviction_algorithm must be one of 'fmoe', 'lru', 'lfu'"
            )
        self.prefetch_distance = prefetch_distance
        self.store_capacity = store_capacity
        self.use_semantic = use_semantic
        self.use_trajectory = use_trajectory
        self.dynamic_threshold = dynamic_threshold
        self.max_prefetch_factor = max_prefetch_factor
        self.overheads = overheads or OverheadModel()
        self.update_store_online = update_store_online
        self.eviction_algorithm = eviction_algorithm
        self._shared_store = shared_store
        """Externally owned store to attach to instead of building one —
        cluster replicas configured for a shared store all learn into (and
        search) the same map collection."""
        self._lru = LRUTracker()
        self._lfu = LFUTracker()
        self.store: ExpertMapStore | None = None
        self.matcher: ExpertMapMatcher | None = None
        self.scorer: FMoECacheScorer | None = None
        self._trajectory_session: (
            IncrementalTrajectoryMatch | ReferenceTrajectoryMatch | None
        ) = None
        self._columnar = False
        self.semantic_score_log: list[float] = []
        self.trajectory_score_log: list[float] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def attach(self, engine) -> None:
        super().attach(engine)
        self._columnar = bool(getattr(engine, "columnar", False))
        config = engine.config
        distance = min(self.prefetch_distance, config.num_layers)
        if self._shared_store is not None:
            store = self._shared_store
            if (
                store.num_layers != config.num_layers
                or store.num_experts != config.experts_per_layer
                or store.embedding_dim != config.embedding_dim
            ):
                raise ConfigError(
                    "shared store dimensions "
                    f"(L={store.num_layers}, J={store.num_experts}, "
                    f"h={store.embedding_dim}) do not match the model "
                    f"(L={config.num_layers}, J={config.experts_per_layer}, "
                    f"h={config.embedding_dim})"
                )
            self.store = store
        else:
            self.store = ExpertMapStore(
                capacity=self.store_capacity,
                num_layers=config.num_layers,
                num_experts=config.experts_per_layer,
                embedding_dim=config.embedding_dim,
                prefetch_distance=distance,
            )
        self.matcher = ExpertMapMatcher(
            self.store,
            base_seconds=self.overheads.map_match_base_seconds,
            per_record_seconds=self.overheads.map_match_per_record_seconds,
        )
        self.scorer = FMoECacheScorer(
            config.num_layers, config.experts_per_layer
        )

    def warm(self, traces: Sequence) -> None:
        if self.store is None:
            raise ConfigError("policy must be attached before warming")
        for trace in traces:
            for iteration_map in trace.iteration_maps:
                self.store.add(trace.embedding, iteration_map)

    # ------------------------------------------------------------------ #
    # Selection helpers
    # ------------------------------------------------------------------ #

    def _max_prefetch_count(self) -> int:
        return int(math.ceil(self.max_prefetch_factor * self.config.top_k))

    def _select(self, row: np.ndarray, score: float) -> np.ndarray:
        """Expert indices to prefetch for one layer given the match score."""
        if self.dynamic_threshold:
            threshold = selection_threshold(score)
            return select_prefetch_experts(
                row,
                threshold,
                self.config.top_k,
                max_count=self._max_prefetch_count(),
            )
        top = np.argsort(row)[::-1][: self.config.top_k]
        return top

    def _instructions_for_layer(
        self,
        row: np.ndarray,
        score: float,
        target_layer: int,
        current_layer: int,
    ) -> list[PrefetchInstruction]:
        assert self.scorer is not None
        self.scorer.update_prediction_row(target_layer, row)
        selected = self._select(row, score)
        return [
            PrefetchInstruction(
                expert=ExpertId(target_layer, int(j)),
                priority=prefetch_priority(
                    float(row[j]), target_layer, current_layer
                ),
            )
            for j in selected
        ]

    def _prefetch_block_for_lanes(
        self,
        rows32: np.ndarray,
        scores: np.ndarray,
        targets: np.ndarray,
        gaps: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Columnar :meth:`_instructions_for_layer` over N selection lanes.

        ``rows32`` is ``(N, J)`` float32 map rows in emission order,
        ``scores``/``targets``/``gaps`` the per-lane match score, target
        layer, and layer gap ``l − l_now``.  Returns (flat ids,
        priorities): the same experts, in the same lane-major order, with
        the same ``p / gap`` priorities the scalar path would emit — one
        argsort/cumsum pass instead of one Python call per lane and one
        ``PrefetchInstruction`` per expert.
        """
        rows = rows32.astype(np.float64)
        width = rows.shape[1]
        if self.dynamic_threshold:
            thresholds = np.clip(1.0 - scores, 0.0, 1.0)
            order, counts = select_prefetch_counts(
                rows,
                thresholds,
                self.config.top_k,
                max_count=self._max_prefetch_count(),
            )
        else:
            order = np.argsort(rows, axis=1)[:, ::-1]
            counts = np.full(rows.shape[0], self.config.top_k, dtype=np.int64)
        mask = np.arange(width)[None, :] < counts[:, None]
        selected = order[mask]
        lanes = np.repeat(np.arange(rows.shape[0]), counts)
        flat = targets[lanes] * width + selected
        priorities = rows[lanes, selected] / gaps[lanes]
        return flat.astype(np.int64), priorities

    # ------------------------------------------------------------------ #
    # Engine hooks
    # ------------------------------------------------------------------ #

    def on_iteration_start(self, ctx: IterationContext) -> PolicyAction:
        assert self.store is not None and self.matcher is not None
        assert self.scorer is not None
        self.scorer.reset_predictions()
        # One trajectory match per iteration.  The columnar core streams it
        # (each layer's gate output folds in incrementally, O(C·J) per
        # layer); the scalar reference core re-matches the full prefix from
        # scratch every layer — the naive Eq. 5 interpreter the parity
        # suite compares against, bitwise identical by construction.
        if self.use_trajectory and not self.store.is_empty:
            if self._columnar:
                self._trajectory_session = self.matcher.incremental_session(
                    ctx.batch_size
                )
            else:
                self._trajectory_session = self.matcher.reference_session(
                    ctx.batch_size
                )
        else:
            self._trajectory_session = None
        action = PolicyAction(
            sync_overheads={
                "context_collect": self.overheads.context_collect_seconds
            }
        )
        if not self.use_semantic or self.store.is_empty:
            return action
        result = self.matcher.match_semantic(ctx.embeddings)
        if result is None:
            return action
        self.semantic_score_log.extend(float(s) for s in result.scores)
        # Semantic search covers layers [0, d); with trajectory search
        # disabled it must carry the entire iteration.
        horizon = (
            min(self.prefetch_distance, self.config.num_layers)
            if self.use_trajectory
            else self.config.num_layers
        )
        if self._columnar:
            # One (B, horizon, J) gather covers every (request, layer)
            # lane; the legacy b-major/layer-inner emission order is the
            # row-major reshape.  Prediction merges are an elementwise
            # maximum, so folding the batch first is order-independent.
            matched = self.store.gather_maps(result.indices)[:, :horizon, :]
            merged = matched.max(axis=0)
            for layer in range(horizon):
                self.scorer.update_prediction_row(layer, merged[layer])
            lanes = matched.reshape(-1, self.config.experts_per_layer)
            layers = np.tile(np.arange(horizon), ctx.batch_size)
            action.prefetch_block = self._prefetch_block_for_lanes(
                lanes,
                np.repeat(result.scores, horizon),
                layers,
                layers + 1,
            )
            action.async_overheads = {
                "map_match": self.matcher.match_seconds()
            }
            return action
        instructions: list[PrefetchInstruction] = []
        for b in range(ctx.batch_size):
            score = float(result.scores[b])
            for layer in range(horizon):
                row = self.matcher.matched_row(result, b, layer)
                instructions.extend(
                    self._instructions_for_layer(row, score, layer, -1)
                )
        action.prefetch = instructions
        action.async_overheads = {"map_match": self.matcher.match_seconds()}
        return action

    def on_gate_output(
        self, ctx: IterationContext, layer: int
    ) -> PolicyAction:
        assert self.store is not None and self.matcher is not None
        assert self.scorer is not None
        if layer > 0:
            # The forward pass moved past layer-1: its experts are now the
            # least valuable residents (layer-sequential reuse, §4.5).
            self.scorer.mark_layer_done(layer - 1)
        if not self.use_trajectory:
            return PolicyAction()
        session = self._trajectory_session
        if session is None:
            return PolicyAction()
        result = session.observe_layer(ctx.observed[:, layer, :])
        target = layer + self.prefetch_distance
        if result is None or target >= self.config.num_layers:
            return PolicyAction()
        self.trajectory_score_log.extend(float(s) for s in result.scores)
        if self._columnar:
            if ctx.batch_size == 1:
                # Unbatched iterations skip the gather: one matched row,
                # one selection, flat ids built in place.
                row32 = self.matcher.matched_row(result, 0, target)
                self.scorer.update_prediction_row(target, row32)
                row = row32.astype(np.float64)
                selected = self._select(row, float(result.scores[0]))
                flat = target * self.config.experts_per_layer + selected
                return PolicyAction(
                    prefetch_block=(
                        flat.astype(np.int64),
                        row[selected] / (target - layer),
                    ),
                    async_overheads={
                        "map_match": self.matcher.match_seconds()
                    },
                )
            rows = self.store.gather_rows(result.indices, target)
            self.scorer.update_prediction_row(target, rows.max(axis=0))
            shape = np.full(ctx.batch_size, target, dtype=np.int64)
            return PolicyAction(
                prefetch_block=self._prefetch_block_for_lanes(
                    rows,
                    result.scores,
                    shape,
                    shape - layer,
                ),
                async_overheads={"map_match": self.matcher.match_seconds()},
            )
        instructions: list[PrefetchInstruction] = []
        for b in range(ctx.batch_size):
            score = float(result.scores[b])
            row = self.matcher.matched_row(result, b, target)
            instructions.extend(
                self._instructions_for_layer(row, score, target, layer)
            )
        return PolicyAction(
            prefetch=instructions,
            async_overheads={"map_match": self.matcher.match_seconds()},
        )

    def on_iteration_end(self, ctx: IterationContext) -> PolicyAction:
        assert self.store is not None
        if not self.update_store_online:
            return PolicyAction()
        for b in range(ctx.batch_size):
            self.store.add(ctx.embeddings[b], ctx.observed[b])
        return PolicyAction(
            async_overheads={
                "map_update": self.overheads.map_update_seconds
                * ctx.batch_size
            }
        )

    def on_expert_served(self, expert: ExpertId, hit: bool, now: float) -> None:
        assert self.scorer is not None
        self.scorer.touch(expert)
        self._lru.touch(expert, now)
        self._lfu.touch(expert, now)

    def eviction_priority(self, expert: ExpertId, now: float) -> float:
        """Dispatch on the configured cache algorithm (Fig. 12b ablation)."""
        if self.eviction_algorithm == "lru":
            return self._lru.eviction_priority(expert, now)
        if self.eviction_algorithm == "lfu":
            return self._lfu.eviction_priority(expert, now)
        assert self.scorer is not None
        return self.scorer.eviction_priority(expert, now)

    def eviction_score_matrix(self, now: float) -> np.ndarray | None:
        """Dense flat ``(L·J,)`` score matrix for the pool's victim sort."""
        if self.eviction_algorithm != "fmoe" or self.scorer is None:
            return None
        return self.scorer.score_matrix()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def mean_semantic_score(self) -> float:
        """Mean best semantic-match score over the run (Fig. 14a)."""
        if not self.semantic_score_log:
            return 0.0
        return float(np.mean(self.semantic_score_log))

    def mean_trajectory_score(self) -> float:
        """Mean best trajectory-match score over the run (Fig. 14a)."""
        if not self.trajectory_score_log:
            return 0.0
        return float(np.mean(self.trajectory_score_log))
