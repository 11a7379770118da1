#!/usr/bin/env python3
"""Extension point: write your own offloading policy and benchmark it.

Implements a simple "sticky top-K" policy — prefetch, for each upcoming
layer, the experts the *previous* iteration activated there (a pure
recency heuristic with no history store) — and compares it against fMoE
and the hindsight oracle on the same workload.  Use this as a template for
experimenting with new offloading ideas.

Run:  python examples/custom_policy.py
"""

import numpy as np

from repro.baselines import OraclePolicy
from repro.baselines.base import BasePolicy, LFUTracker
from repro.core.policy import FMoEPolicy
from repro.experiments.common import ExperimentConfig, build_world
from repro.serving.engine import IterationContext, PolicyAction
from repro.types import ExpertId


class StickyTopKPolicy(BasePolicy):
    """Prefetch whatever each layer activated last iteration.

    Decode routing is temporally stable within a generation phase, so
    pure per-layer recency already captures some of the signal fMoE's
    expert maps exploit — but it cannot anticipate phase drift or adapt
    to new prompts, which is where the map store wins.
    """

    name = "sticky-topk"

    def __init__(self, prefetch_distance: int = 3) -> None:
        super().__init__()
        self.prefetch_distance = prefetch_distance
        self._last_activated: dict[int, np.ndarray] = {}

    def attach(self, engine) -> None:
        super().attach(engine)
        self._lfu = LFUTracker(
            self.config.num_layers, self.config.experts_per_layer
        )

    def _block(self, layers) -> tuple[np.ndarray, np.ndarray]:
        """Prefetch block: each layer's remembered experts, equal priority
        (ties keep this emission order)."""
        width = self.config.experts_per_layer
        flat = np.array(
            [
                layer * width + j
                for layer in layers
                for j in self._last_activated.get(layer, ())
            ],
            dtype=np.int64,
        )
        return flat, np.ones(len(flat))

    def on_iteration_start(self, ctx: IterationContext) -> PolicyAction:
        layers = range(min(self.prefetch_distance, self.config.num_layers))
        return PolicyAction(prefetch_block=self._block(layers))

    def on_gate_output(self, ctx: IterationContext, layer: int) -> PolicyAction:
        # Remember what this layer just used ...
        union: set[int] = set()
        for activated in ctx.activated_at(layer):
            union.update(int(j) for j in activated)
        self._last_activated[layer] = np.array(sorted(union))
        # ... and prefetch the memory of layer (layer + d).
        target = layer + self.prefetch_distance
        if target >= self.config.num_layers:
            return PolicyAction()
        return PolicyAction(prefetch_block=self._block([target]))

    def on_expert_served(self, expert: ExpertId, hit: bool, now: float) -> None:
        self._lfu.touch(expert, now)

    def eviction_score_matrix(self, now: float) -> np.ndarray:
        """Flat ``(L·J,)`` scores, higher evicted first: least used."""
        return self._lfu.eviction_score_matrix(now)


def main() -> None:
    from repro.serving.engine import ServingEngine

    config = ExperimentConfig(num_requests=30, num_test_requests=6)
    world = build_world(config)
    budget = config.resolve_budget(world.model_config)

    policies = [
        StickyTopKPolicy(prefetch_distance=config.prefetch_distance),
        FMoEPolicy(prefetch_distance=config.prefetch_distance),
        OraclePolicy(prefetch_distance=config.prefetch_distance),
    ]
    for policy in policies:
        engine = ServingEngine(
            world.fresh_model(), policy, cache_budget_bytes=budget
        )
        policy.warm(world.warm_traces)
        report = engine.run(world.test_requests)
        print(
            f"{policy.name:12s} TTFT={report.mean_ttft():7.3f}s "
            f"TPOT={report.mean_tpot() * 1000:8.1f}ms "
            f"hit={report.hit_rate:5.3f}"
        )


if __name__ == "__main__":
    main()
