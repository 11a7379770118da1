"""The scalar reference core: the serving policy read straight off the paper.

The parity suite compares the one serving core against this reference.
Only the policy half lives here; the engine and pool halves are
production paths that a reference engine reaches without a switch:

- :class:`ReferenceTrajectoryMatch` re-matches the whole observed prefix
  at every layer (the naive Eq. 5), where the production policy folds
  one iteration's layers incrementally and plans them up front;
- :class:`ReferenceFMoEPolicy` emits one ``PrefetchInstruction`` per
  expert through the scalar selection helpers, where the production
  policy emits columnar prefetch blocks; it exposes no dense eviction
  matrix, so the pool sorts candidates by ``eviction_priority`` one
  call each (the path the baselines and the lru/lfu ablations take);
- :func:`reference_engine` subscribes a no-op observer, which sends
  every layer through ``_serve_layer``'s general per-expert loop instead
  of its all-hit fast path.

Every answer is bitwise identical to the production core's by
construction; ``tests/golden/parity_corpus.json`` holds the answers this
reference gave on its fixed cells.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

import repro.cluster.driver as driver
import repro.experiments.common as common
from repro.core.matcher import MatchResult
from repro.core.policy import FMoEPolicy
from repro.core.prefetch import (
    prefetch_priority,
    select_prefetch_experts,
    selection_threshold,
)
from repro.core.store import ExpertMapStore
from repro.serving.engine import PolicyAction, PrefetchInstruction
from repro.serving.events import EngineObserver
from repro.types import ExpertId

#: The production engine factory (patched module attributes never
#: rebind this name).
_make_engine = common.make_engine


class ReferenceTrajectoryMatch:
    """The naive per-layer full-prefix trajectory search.

    This is the straightforward reading of the paper's Eq. 5: every layer,
    re-match the entire observed prefix against every stored map —
    O(C·l·J) work at layer ``l``, O(C·L²·J) per iteration.  It is the
    scalar reference interpreter the parity suite compares the columnar
    core against, and it is *bitwise identical* to
    :class:`IncrementalTrajectoryMatch` by construction: in float32 over
    the same stored maps, the refold adds the same per-layer
    ``rows @ stored.T`` products and squared-norm reductions in the same
    left-to-right order the incremental session folds them, so every
    float lands on the identical value.
    """

    def __init__(self, store: ExpertMapStore, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.store = store
        self.batch_size = batch_size
        self.layers_observed = 0
        self._rows: list[np.ndarray] = []

    def observe_layer(self, rows: np.ndarray) -> MatchResult | None:
        """Fold in one layer's gate outputs, then re-match from scratch."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float32))
        if rows.shape[0] != self.batch_size:
            raise ValueError(
                f"expected batch {self.batch_size}, got {rows.shape[0]}"
            )
        if self.layers_observed >= self.store.num_layers:
            raise ValueError("all layers already observed")
        size = len(self.store)
        if size == 0:
            return None
        self._rows.append(rows)
        self.layers_observed += 1
        scores = self.prefix_scores()
        best = np.argmax(scores, axis=1)
        return MatchResult(
            indices=best,
            scores=scores[np.arange(self.batch_size), best],
        )

    def prefix_scores(self) -> np.ndarray:
        """Cosine of the observed prefix against every stored map's
        prefix, refolded from scratch: ``(B, size)`` float32."""
        size = len(self.store)
        dots = np.zeros((self.batch_size, size), dtype=np.float32)
        query_sq = np.zeros(self.batch_size, dtype=np.float32)
        stored_sq = np.zeros(size, dtype=np.float32)
        stored = self.store.gather_maps(np.arange(size))
        for layer, observed in enumerate(self._rows):
            # Read the store the way a straightforward implementation
            # would: every map as stored, one layer's rows at a time.
            stored_rows = stored[:, layer]
            dots += observed @ stored_rows.T
            query_sq += (observed**2).sum(axis=1)
            stored_sq += (stored_rows**2).sum(axis=1)
        denom = np.sqrt(np.outer(query_sq, stored_sq))
        denom[denom == 0.0] = 1.0
        return dots / denom


class ReferenceFMoEPolicy(FMoEPolicy):
    """fMoE with per-layer matching, per-expert prefetch instructions and
    per-candidate eviction scoring."""

    _session: ReferenceTrajectoryMatch | None = None
    """The current iteration's per-layer trajectory search."""

    @classmethod
    def like(cls, policy: FMoEPolicy) -> "ReferenceFMoEPolicy":
        """The reference twin of an unattached ``policy``."""
        return cls(
            prefetch_distance=policy.prefetch_distance,
            store_capacity=policy.store_capacity,
            use_semantic=policy.use_semantic,
            use_trajectory=policy.use_trajectory,
            dynamic_threshold=policy.dynamic_threshold,
            max_prefetch_factor=policy.max_prefetch_factor,
            overheads=policy.overheads,
            update_store_online=policy.update_store_online,
            eviction_algorithm=policy.eviction_algorithm,
            shared_store=policy._shared_store,
        )

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

    def on_iteration_start(self, ctx) -> PolicyAction:
        assert self.store is not None and self.matcher is not None
        assert self.scorer is not None
        self.scorer.reset_predictions()
        self._session = None
        if self.use_trajectory and not self.store.is_empty:
            self._session = ReferenceTrajectoryMatch(
                self.store, ctx.batch_size
            )
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
        horizon = (
            min(self.prefetch_distance, self.config.num_layers)
            if self.use_trajectory
            else self.config.num_layers
        )
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

    def on_gate_output(self, ctx, layer: int) -> PolicyAction:
        assert self.store is not None and self.matcher is not None
        assert self.scorer is not None
        if layer > 0:
            self.scorer.mark_layer_done(layer - 1)
        if not self.use_trajectory:
            return PolicyAction()
        target = layer + self.prefetch_distance
        session = self._session
        if session is None:
            return PolicyAction()
        result = session.observe_layer(ctx.observed[:, layer, :])
        if result is None or target >= self.config.num_layers:
            return PolicyAction()
        self.trajectory_score_log.extend(float(s) for s in result.scores)
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

    def eviction_score_matrix(self, now: float) -> None:
        """Decline the dense form: the pool scores candidates one by one."""
        return None


def reference_engine(world, system, policy=None, **kwargs):
    """``make_engine`` on the reference core (same signature).

    fMoE serves through :class:`ReferenceFMoEPolicy` (an explicit fMoE
    ``policy``, such as a shared-store replica's, is swapped for its
    twin); the baselines keep their own policies.  A no-op subscriber
    keeps every layer on the general serving loop.
    """
    if policy is None and system == "fmoe":
        policy = common.make_policy(system, world.config)
    if isinstance(policy, FMoEPolicy):
        policy = ReferenceFMoEPolicy.like(policy)
    engine = _make_engine(world, system, policy=policy, **kwargs)
    engine.subscribe(EngineObserver())
    return engine


@contextlib.contextmanager
def reference_core():
    """Build every engine — bare runs and cluster replicas — on the
    reference core for the duration of the block."""
    with mock.patch.object(
        common, "make_engine", reference_engine
    ), mock.patch.object(driver, "make_engine", reference_engine):
        yield
