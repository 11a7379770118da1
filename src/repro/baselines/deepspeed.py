"""DeepSpeed-Inference baseline: expert-agnostic layer-wise offloading.

The paper's fairness-adjusted variant (§6.1): parameters stream through GPU
memory layer by layer with *no* expert awareness — when a layer is reached,
every non-resident expert of that layer is pulled from host memory as one
sequential block, whether or not the gate will activate it — plus an expert
cache so repeated activations can hit.  Being expert-agnostic, the cache
has no routing information and falls back to recency (LRU), where "use"
means actual activation.

Two properties put this baseline at the worst corner of the latency-memory
trade-off (Figs. 9, 11): the layer block transfers serially on the critical
path (layer-wise parameter offloading has no per-expert parallelism and no
compute/transfer overlap), and the useless copies of never-activated
experts pollute the cache.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BasePolicy, LRUTracker
from repro.serving.engine import IterationContext, PolicyAction
from repro.types import ExpertId


class DeepSpeedPolicy(BasePolicy):
    """Serial layer-wise expert streaming with an LRU expert cache."""

    name = "deepspeed-inference"

    def attach(self, engine) -> None:
        super().attach(engine)
        self._lru = LRUTracker(
            self.config.num_layers, self.config.experts_per_layer
        )

    def on_gate_output(
        self, ctx: IterationContext, layer: int
    ) -> PolicyAction:
        assert self.engine is not None
        pool = self.pool
        now = self.engine.now
        load_seconds = self.engine.hardware.expert_load_seconds(self.config)
        # Expert-agnostic streaming: every non-resident expert of the layer
        # crosses PCIe serially before the FFN runs ...
        missing = [
            ExpertId(layer, j)
            for j in range(self.config.experts_per_layer)
            if not pool.is_tracked(ExpertId(layer, j))
        ]
        if not missing:
            return PolicyAction()
        # ... but only the experts the gate actually uses graduate from the
        # staging buffer into the (fairness-added) expert cache.
        activated: set[int] = set()
        for row in ctx.activated_at(layer):
            activated.update(int(j) for j in row)
        for expert in missing:
            if expert.expert in activated:
                pool.insert_blocking(expert, now)
        return PolicyAction(
            sync_overheads={"layer_stream": len(missing) * load_seconds}
        )

    def on_expert_served(self, expert: ExpertId, hit: bool, now: float) -> None:
        self._lru.touch(expert, now)

    def eviction_score_matrix(self, now: float) -> np.ndarray:
        return self._lru.eviction_score_matrix(now)
