"""The assembled fMoE offloading policy (paper §3.2 workflow, §4 design).

Per iteration the policy follows the paper's five steps:

1. *Context collection* (synchronous, cheap): embeddings + observed
   trajectory views.
2. *Expert map matching*: semantic search guides the first ``d`` layers at
   iteration start; trajectory search over the prefix ``0..l`` picks the
   map whose row guides layer ``l + d``.  The policy plans every
   trajectory-guided layer of the iteration at its start (one fold of
   layers ``0..L−d−1``, one batched selection) and hands out layer ``l``'s
   entry at its gate output; entry ``l`` reads only rows ``0..l``, so the
   plan acts exactly as a per-layer search would.  Matching is
   asynchronous — it delays when prefetch instructions reach the PCIe
   queue but never blocks compute.
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
from typing import NamedTuple, Sequence

import numpy as np

from repro.baselines.base import BasePolicy, LFUTracker, LRUTracker
from repro.core.cache import FMoECacheScorer
from repro.core.matcher import ExpertMapMatcher
from repro.core.overheads import OverheadModel
from repro.core.prefetch import select_prefetch_counts
from repro.core.store import ExpertMapStore
from repro.errors import ConfigError
from repro.serving.engine import IterationContext, PolicyAction
from repro.types import ExpertId


class TrajectoryPlan(NamedTuple):
    """One iteration's trajectory-guided prefetches, entry ``l`` per
    planned layer ``l`` (targeting layer ``l + d``).

    Entry ``l`` depends on gate rows ``0..l`` only.
    """

    predictions: np.ndarray
    """``(L−d, J)`` float32: the batch maximum of the matched rows, the
    scorer's prediction row for the target layer."""

    scores: np.ndarray
    """``(L−d, B)`` float32: best trajectory-match score per batch
    position."""

    score_lists: list[list[float]]
    """``scores`` as Python floats, one list per layer (the score log)."""

    actions: list[PolicyAction]
    """Per-layer action: the prefetch block (flat expert ids
    ``target · J + j``, priorities ``p / d``) and the match overhead."""


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
        self.store: ExpertMapStore | None = None
        self.matcher: ExpertMapMatcher | None = None
        self.scorer: FMoECacheScorer | None = None
        self._plan: TrajectoryPlan | None = None
        """The trajectory plan of the current iteration."""
        self.semantic_score_log: list[float] = []
        self.trajectory_score_log: list[float] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def attach(self, engine) -> None:
        super().attach(engine)
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
        self._lru = LRUTracker(config.num_layers, config.experts_per_layer)
        self._lfu = LFUTracker(config.num_layers, config.experts_per_layer)

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

    def _prefetch_block_for_lanes(
        self,
        rows32: np.ndarray,
        scores: np.ndarray,
        targets: np.ndarray,
        gaps: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Prefetch selection (§4.3) over N lanes in one pass.

        ``rows32`` is ``(N, J)`` float32 map rows in emission order,
        ``scores``/``targets``/``gaps`` the per-lane match score, target
        layer, and layer gap ``l − l_now``.  Returns (flat ids,
        priorities, per-lane counts): each lane's experts chosen by the
        similarity threshold δ = clip(1 − score) (or a fixed top-K), in
        lane-major order, with priorities ``p / gap`` — one
        argsort/cumsum pass instead of one selection per lane.  δ is
        float64 whatever the scores' dtype, as the scalar
        :func:`~repro.core.prefetch.selection_threshold` computes it.
        """
        rows = rows32.astype(np.float64)
        width = rows.shape[1]
        if self.dynamic_threshold:
            thresholds = np.clip(1.0 - scores.astype(np.float64), 0.0, 1.0)
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
        return flat.astype(np.int64), priorities, counts

    def trajectory_plan(self, rows: np.ndarray) -> TrajectoryPlan | None:
        """Plan one iteration's trajectory-guided prefetches.

        ``rows`` is the iteration's ``(B, L, J)`` gate output
        (:meth:`IterationContext.iteration_rows`).  Layers ``0..L−d−1``
        fold in one :meth:`IncrementalTrajectoryMatch.observe_layers`
        call, so entry ``l`` is the Eq. 5 match over prefix ``0..l`` — the
        search a per-layer hook would run at layer ``l``; layers whose
        target ``l + d`` lies past the last layer are not searched.  The
        matched target rows of all ``(L−d)·B`` lanes (layer-major, then
        batch position) go through one selection pass, then split into
        per-layer actions.  None when nothing is planned (an empty store,
        or ``d >= L``).
        """
        assert self.store is not None and self.matcher is not None
        num_layers = self.config.num_layers
        distance = self.prefetch_distance
        planned = num_layers - distance
        if planned <= 0 or self.store.is_empty:
            return None
        batch = rows.shape[0]
        result = self.matcher.incremental_session(batch).observe_layers(
            rows[:, :planned, :]
        )
        scores = result.scores
        targets = np.arange(distance, num_layers)
        matched = self.store.gather_rows(result.indices, targets[:, None])
        ids, priorities, counts = self._prefetch_block_for_lanes(
            matched.reshape(planned * batch, -1),
            scores.reshape(-1),
            np.repeat(targets, batch),
            np.full(planned * batch, distance, dtype=np.int64),
        )
        ends = np.cumsum(counts.reshape(planned, batch).sum(axis=1)).tolist()
        seconds = self.matcher.match_seconds()
        return TrajectoryPlan(
            predictions=matched.max(axis=1),
            scores=scores,
            score_lists=scores.tolist(),
            actions=[
                PolicyAction(
                    prefetch_block=(ids[a:b], priorities[a:b]),
                    async_overheads={"map_match": seconds},
                )
                for a, b in zip([0, *ends], ends)
            ],
        )

    # ------------------------------------------------------------------ #
    # Engine hooks
    # ------------------------------------------------------------------ #

    def on_iteration_start(self, ctx: IterationContext) -> PolicyAction:
        assert self.store is not None and self.matcher is not None
        assert self.scorer is not None
        self.scorer.reset_predictions()
        # One trajectory match per iteration, planned here: the store is
        # fixed until on_iteration_end and the routing is already sampled.
        self._plan = None
        if self.use_trajectory and not self.store.is_empty:
            self._plan = self.trajectory_plan(ctx.iteration_rows())
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
        # One (B, horizon, J) gather covers every (request, layer) lane,
        # emitted b-major, layer-inner (the row-major reshape).
        # Prediction merges are an elementwise maximum, so folding the
        # batch first is order-independent.
        matched = self.store.gather_maps(result.indices)[:, :horizon, :]
        merged = matched.max(axis=0)
        for layer in range(horizon):
            self.scorer.update_prediction_row(layer, merged[layer])
        lanes = matched.reshape(-1, self.config.experts_per_layer)
        layers = np.tile(np.arange(horizon), ctx.batch_size)
        ids, priorities, _ = self._prefetch_block_for_lanes(
            lanes,
            np.repeat(result.scores, horizon),
            layers,
            layers + 1,
        )
        action.prefetch_block = (ids, priorities)
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
        plan = self._plan
        if plan is None or layer >= len(plan.actions):
            return PolicyAction()
        self.scorer.update_prediction_row(
            layer + self.prefetch_distance, plan.predictions[layer]
        )
        self.trajectory_score_log.extend(plan.score_lists[layer])
        return plan.actions[layer]

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
        # Only the configured lru/lfu ablation ever reads its tracker.
        if self.eviction_algorithm == "lru":
            self._lru.touch(expert, now)
        elif self.eviction_algorithm == "lfu":
            self._lfu.touch(expert, now)

    def eviction_score_matrix(self, now: float) -> np.ndarray:
        """Flat ``(L·J,)`` eviction scores of the configured cache
        algorithm (Fig. 12b ablation)."""
        if self.eviction_algorithm == "lru":
            return self._lru.eviction_score_matrix(now)
        if self.eviction_algorithm == "lfu":
            return self._lfu.eviction_score_matrix(now)
        assert self.scorer is not None
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
