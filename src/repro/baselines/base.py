"""Base class and shared cache trackers for offloading policies."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.serving.engine import IterationContext, PolicyAction
from repro.serving.request import Request
from repro.types import ExpertId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.engine import ServingEngine
    from repro.workloads.profiler import RequestTrace


class LRUTracker:
    """Least-recently-used bookkeeping for eviction scoring."""

    def __init__(self, num_layers: int, experts_per_layer: int) -> None:
        self._width = experts_per_layer
        # Never-used experts count as last used at -1.0.
        self._last_use = np.full(num_layers * experts_per_layer, -1.0)

    def touch(self, expert: ExpertId, now: float) -> None:
        """Record a use of ``expert`` at virtual time ``now``."""
        self._last_use[expert.layer * self._width + expert.expert] = now

    def eviction_score_matrix(self, now: float) -> np.ndarray:
        """Older last use → larger score → evicted first."""
        return now - self._last_use


class LFUTracker:
    """Least-frequently-used bookkeeping for eviction scoring."""

    def __init__(self, num_layers: int, experts_per_layer: int) -> None:
        self._width = experts_per_layer
        self._freq = np.zeros(num_layers * experts_per_layer, dtype=np.int64)

    def touch(self, expert: ExpertId, now: float) -> None:
        """Record a use of ``expert`` (time is ignored for LFU)."""
        self._freq[expert.layer * self._width + expert.expert] += 1

    def frequency(self, expert: ExpertId) -> int:
        """Total recorded uses of ``expert``."""
        return int(self._freq[expert.layer * self._width + expert.expert])

    def eviction_score_matrix(self, now: float) -> np.ndarray:
        """Lower visit frequency → larger score → evicted first."""
        return 1.0 / (1.0 + self._freq)


class BasePolicy:
    """No-op policy skeleton; subclasses override the hooks they need."""

    name = "base"

    def __init__(self) -> None:
        self.engine: "ServingEngine | None" = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def attach(self, engine: "ServingEngine") -> None:
        """Called once by the engine; gives access to config and pool."""
        self.engine = engine

    @property
    def config(self):
        assert self.engine is not None, "policy not attached to an engine"
        return self.engine.config

    @property
    def pool(self):
        assert self.engine is not None, "policy not attached to an engine"
        return self.engine.pool

    def warm(self, traces: Sequence["RequestTrace"]) -> None:
        """Ingest profiled history before evaluation (offline setting)."""

    # ------------------------------------------------------------------ #
    # Engine hooks (default: do nothing)
    # ------------------------------------------------------------------ #

    def on_request_start(
        self, request: Request, embedding: np.ndarray
    ) -> None:
        """Called before a request's first iteration, with its embedding."""

    def on_request_end(self, request: Request) -> None:
        """Called when a request generates its last token."""

    def on_iteration_start(self, ctx: IterationContext) -> PolicyAction:
        """Called before layer 0 of every iteration (semantic context)."""
        return PolicyAction()

    def on_gate_output(
        self, ctx: IterationContext, layer: int
    ) -> PolicyAction:
        """Called after each layer's gate output is revealed."""
        return PolicyAction()

    def on_expert_served(self, expert: ExpertId, hit: bool, now: float) -> None:
        """Called once per activated expert with its hit/miss outcome."""

    def on_iteration_end(self, ctx: IterationContext) -> PolicyAction:
        """Called after the last layer (map-update point)."""
        return PolicyAction()

    def eviction_score_matrix(self, now: float) -> np.ndarray:
        """Every expert's eviction score, flat ``(L·J,)`` float64 indexed
        by ``layer * J + j``; higher is evicted first.  Default: all
        equal, so the pool evicts its first candidate."""
        return np.zeros(self.config.num_layers * self.config.experts_per_layer)

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def topk_block(
        layer: int, distribution: np.ndarray, k: int, base_priority: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Prefetch the ``k`` most probable experts of one layer.

        Returns (flat ids ``layer * J + j`` as int64, priorities
        ``base_priority + p`` as float64), most probable first.
        """
        width = distribution.shape[-1]
        top = np.argsort(distribution)[::-1][:k]
        priorities = base_priority + distribution[top].astype(np.float64)
        return (layer * width + top).astype(np.int64), priorities

    @staticmethod
    def concat_blocks(
        blocks: Sequence[tuple[np.ndarray, np.ndarray]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """One prefetch block holding ``blocks`` in emission order."""
        ids, priorities = zip(*blocks)
        return np.concatenate(ids), np.concatenate(priorities)
