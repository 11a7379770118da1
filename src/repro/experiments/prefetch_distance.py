"""Fig. 4: expert hit rate vs prefetch distance, coarse vs fine tracking.

Offline prediction-containment evaluation (no cache/timing), per model, at
increasing prefetch distances.  Fine-grained (expert map) tracking holds
its hit rate as the distance grows; coarse-grained (request-level EAM)
tracking sits far lower throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tracking import (
    evaluate_coarse_grained,
    evaluate_fine_grained,
)
from repro.experiments.common import ExperimentConfig, build_world
from repro.workloads.profiler import collect_history


@dataclass(frozen=True)
class DistanceCurve:
    model: str
    tracker: str
    distances: tuple[int, ...]
    hit_rates: tuple[float, ...]


def hit_rate_vs_distance(
    models: tuple[str, ...] = ("mixtral-8x7b", "qwen1.5-moe", "phi-3.5-moe"),
    dataset: str = "lmsys-chat-1m",
    distances: tuple[int, ...] = (1, 2, 3, 4, 6, 8),
    num_requests: int = 48,
    num_test: int = 6,
    store_capacity: int = 2048,
    seed: int = 0,
) -> list[DistanceCurve]:
    """Fine vs coarse hit-rate curves over prefetch distances (Fig. 4)."""
    curves = []
    for model in models:
        world = build_world(
            ExperimentConfig(
                model_name=model,
                dataset=dataset,
                num_requests=num_requests,
                seed=seed,
            )
        )
        warm = world.warm_traces
        test = collect_history(
            world.fresh_model(), world.test_requests[:num_test]
        )
        fine, coarse = [], []
        for d in distances:
            fine.append(
                evaluate_fine_grained(
                    world.model_config,
                    warm,
                    test,
                    distance=d,
                    capacity=store_capacity,
                ).hit_rate
            )
            coarse.append(
                evaluate_coarse_grained(
                    world.model_config, warm, test, distance=d
                ).hit_rate
            )
        curves.append(
            DistanceCurve(model, "fine-grained", distances, tuple(fine))
        )
        curves.append(
            DistanceCurve(model, "coarse-grained", distances, tuple(coarse))
        )
    return curves
