"""Extension: redundancy-score deduplication vs naive FIFO replacement.

The paper's store keeps diversity by replacing the record most redundant
with the incoming one (§4.4).  This bench compares match similarity under
that policy against a FIFO store of the same capacity when history exceeds
capacity several times over.
"""

import numpy as np
from _util import emit, run_once

from repro.core.matcher import IncrementalTrajectoryMatch
from repro.core.store import ExpertMapStore
from repro.experiments.common import ExperimentConfig, build_world
from repro.workloads.profiler import collect_history


class FifoStore(ExpertMapStore):
    """Same store, but replacement ignores redundancy (oldest-first)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._next = 0

    def _most_redundant_slot(self, embedding, expert_map):
        slot = self._next
        self._next = (self._next + 1) % self.capacity
        return slot


def _mean_best_similarity(store, test_traces):
    scores = []
    for trace in test_traces:
        sem = store.semantic_scores(trace.embedding[None, :])
        scores.append(float(sem.max()))
        for iteration_map in trace.iteration_maps[:4]:
            session = IncrementalTrajectoryMatch(store, 1)
            for row in iteration_map[: store.num_layers // 2]:
                traj = session.observe_layer(row[None, :])
            scores.append(float(traj.scores[0]))
    return float(np.mean(scores))


def test_ext_dedup_policy(benchmark):
    def experiment():
        config = ExperimentConfig(num_requests=96, num_test_requests=5)
        world = build_world(config)
        cfg = world.model_config
        capacity = 192  # far below the ~1700 warm iterations
        results = {}
        for name, cls in (("rdy-dedup", ExpertMapStore), ("fifo", FifoStore)):
            store = cls(
                capacity=capacity,
                num_layers=cfg.num_layers,
                num_experts=cfg.experts_per_layer,
                embedding_dim=cfg.embedding_dim,
                prefetch_distance=3,
            )
            for trace in world.warm_traces:
                for m in trace.iteration_maps:
                    store.add(trace.embedding, m)
            test = collect_history(
                world.fresh_model(), world.test_requests[:5]
            )
            results[name] = _mean_best_similarity(store, test)
        return results

    results = run_once(benchmark, experiment)
    emit(
        "ext_dedup_policy",
        [f"{name:10s} mean best similarity={v:5.3f}" for name, v in results.items()],
    )
    # Redundancy-aware replacement retains more useful diversity.
    assert results["rdy-dedup"] >= results["fifo"] - 0.01
