"""No-offload reference: every expert resident in GPU memory.

The latency floor of the latency-memory trade-off (paper Fig. 1b): zero
misses, but the cache budget must cover the full expert footprint.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BasePolicy
from repro.errors import CapacityError
from repro.types import ExpertId


class NoOffloadPolicy(BasePolicy):
    """Preloads all experts at attach time; never evicts."""

    name = "no-offload"

    def attach(self, engine) -> None:
        super().attach(engine)
        config = engine.config
        needed = config.total_expert_bytes
        if engine.pool.cache_budget_bytes < needed:
            raise CapacityError(
                "no-offload requires the cache budget to hold every expert "
                f"({needed} bytes > {engine.pool.cache_budget_bytes})"
            )
        engine.pool.preload(
            ExpertId(layer, j)
            for layer in range(config.num_layers)
            for j in range(config.experts_per_layer)
        )

    def eviction_score_matrix(self, now: float) -> np.ndarray:
        raise CapacityError("no-offload must never evict")
