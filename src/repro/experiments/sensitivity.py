"""Figs. 13-14: sensitivity analyses.

13  — TTFT/TPOT of fMoE at different prefetch distances (full engine);
14a — mean semantic/trajectory similarity vs Expert Map Store capacity;
14b — TTFT/TPOT vs inference batch size for four systems.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.policy import FMoEPolicy
from repro.experiments.common import (
    ExperimentConfig,
    build_world,
    run_system,
)
from repro.serving.engine import ServingEngine
from repro.workloads.profiler import collect_history


@dataclass(frozen=True)
class DistanceSensitivityRow:
    model: str
    distance: int
    ttft_seconds: float
    tpot_seconds: float
    hit_rate: float


def prefetch_distance_sensitivity(
    models: tuple[str, ...] = ("mixtral-8x7b",),
    dataset: str = "lmsys-chat-1m",
    distances: tuple[int, ...] = (1, 2, 3, 4, 6, 8),
    config: ExperimentConfig | None = None,
) -> list[DistanceSensitivityRow]:
    """Fig. 13: fMoE with varying prefetch distance."""
    base = config or ExperimentConfig()
    rows = []
    for model in models:
        world = build_world(base.with_(model_name=model, dataset=dataset))
        for distance in distances:
            cfg = base.with_(model_name=model, prefetch_distance=distance)
            policy = FMoEPolicy(
                prefetch_distance=distance,
                store_capacity=base.store_capacity,
            )
            engine = ServingEngine(
                world.fresh_model(),
                policy,
                cache_budget_bytes=cfg.resolve_budget(world.model_config),
                hardware=base.hardware,
            )
            policy.warm(world.warm_traces)
            report = engine.run(world.test_requests)
            rows.append(
                DistanceSensitivityRow(
                    model=model,
                    distance=distance,
                    ttft_seconds=report.mean_ttft(),
                    tpot_seconds=report.mean_tpot(),
                    hit_rate=report.hit_rate,
                )
            )
    return rows


@dataclass(frozen=True)
class CapacityRow:
    capacity: int
    mean_semantic_score: float
    mean_trajectory_score: float


def store_capacity_sensitivity(
    model: str = "mixtral-8x7b",
    dataset: str = "lmsys-chat-1m",
    capacities: tuple[int, ...] = (64, 128, 256, 512, 1024, 2048),
    num_requests: int = 48,
    num_test: int = 6,
    seed: int = 0,
) -> list[CapacityRow]:
    """Fig. 14a: match similarity vs store capacity (diminishing returns)."""
    from repro.analysis.tracking import build_store
    from repro.core.matcher import ExpertMapMatcher

    world = build_world(
        ExperimentConfig(
            model_name=model,
            dataset=dataset,
            num_requests=num_requests,
            seed=seed,
        )
    )
    test = collect_history(world.fresh_model(), world.test_requests[:num_test])
    # Trajectory scores are sampled at these layers' prefixes, skipping any
    # within the prefetch distance of the last layer.
    probes = [
        layer
        for layer in (4, 12, 20)
        if layer < world.model_config.num_layers - 3
    ]
    rows = []
    for capacity in capacities:
        store = build_store(
            world.model_config, world.warm_traces, distance=3, capacity=capacity
        )
        matcher = ExpertMapMatcher(store)
        sem_scores: list[float] = []
        traj_scores: list[float] = []
        for trace in test:
            sem = matcher.match_semantic(trace.embedding[None, :])
            assert sem is not None
            sem_scores.append(float(sem.scores[0]))
            for iteration_map in trace.iteration_maps:
                session = matcher.incremental_session(1)
                for layer in range(probes[-1] + 1):
                    result = session.observe_layer(
                        iteration_map[layer][None, :]
                    )
                    assert result is not None
                    if layer in probes:
                        traj_scores.append(float(result.scores[0]))
        rows.append(
            CapacityRow(
                capacity=capacity,
                mean_semantic_score=sum(sem_scores) / len(sem_scores),
                mean_trajectory_score=sum(traj_scores) / len(traj_scores),
            )
        )
    return rows


@dataclass(frozen=True)
class BatchSizeRow:
    system: str
    batch_size: int
    ttft_seconds: float
    tpot_seconds: float


def batch_size_sensitivity(
    model: str = "mixtral-8x7b",
    dataset: str = "lmsys-chat-1m",
    systems: tuple[str, ...] = (
        "fmoe",
        "mixtral-offloading",
        "promoe",
        "moe-infinity",
    ),
    batch_sizes: tuple[int, ...] = (1, 2, 4),
    config: ExperimentConfig | None = None,
) -> list[BatchSizeRow]:
    """Fig. 14b: performance as the inference batch size grows."""
    base = (config or ExperimentConfig()).with_(
        model_name=model, dataset=dataset
    )
    world = build_world(base)
    rows = []
    for system in systems:
        for batch_size in batch_sizes:
            report = run_system(world, system, batch_size=batch_size)
            rows.append(
                BatchSizeRow(
                    system=system,
                    batch_size=batch_size,
                    ttft_seconds=report.mean_ttft(),
                    tpot_seconds=report.mean_tpot(),
                )
            )
    return rows
