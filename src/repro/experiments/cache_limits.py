"""Fig. 11: TPOT of the five systems under varying expert-cache limits.

The paper sweeps the GPU memory allocated for caching experts from 6 GB to
96 GB (aggregate across the six GPUs) and reports decode TPOT; fMoE should
dominate across the sweep, with the largest margins at tight budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentConfig, SYSTEM_NAMES
from repro.experiments.runner import SimCell, WorldCache, run_cells
from repro.moe.config import get_model_config

#: The paper's sweep points, in GB.
DEFAULT_LIMITS_GB: tuple[float, ...] = (6, 12, 24, 48, 96)


@dataclass(frozen=True)
class CacheLimitRow:
    model: str
    system: str
    cache_gb: float
    tpot_seconds: float
    hit_rate: float


def tpot_vs_cache_limit(
    models: tuple[str, ...] = ("mixtral-8x7b",),
    dataset: str = "lmsys-chat-1m",
    systems: tuple[str, ...] = SYSTEM_NAMES,
    limits_gb: tuple[float, ...] = DEFAULT_LIMITS_GB,
    config: ExperimentConfig | None = None,
    jobs: int | None = 1,
    cache: WorldCache | None = None,
    validate: bool = False,
) -> list[CacheLimitRow]:
    """One row per (model, system, cache-GB) point of the Fig. 11 sweep.

    ``jobs`` fans the independent (model, system, budget) cells across a
    process pool; rows come back in sweep order either way.  ``validate``
    attaches invariant monitors to every cell (see :class:`SimCell`).
    """
    base = config or ExperimentConfig()
    specs: list[tuple[str, str, float]] = []
    cells: list[SimCell] = []
    for model in models:
        model_config = get_model_config(model)
        world_config = base.with_(model_name=model, dataset=dataset)
        total = model_config.total_expert_bytes
        min_budget = model_config.expert_bytes * base.hardware.num_gpus
        for gb in limits_gb:
            budget = int(gb * 1e9)
            # Budgets above the full expert footprint behave identically.
            budget = min(budget, total)
            budget = max(budget, min_budget)
            for system in systems:
                specs.append((model, system, gb))
                cells.append(
                    SimCell(
                        config=world_config,
                        system=system,
                        cache_budget_bytes=budget,
                        validate=validate,
                    )
                )
    reports = run_cells(cells, jobs=jobs, cache=cache)
    return [
        CacheLimitRow(
            model=model,
            system=system,
            cache_gb=gb,
            tpot_seconds=report.mean_tpot(),
            hit_rate=report.hit_rate,
        )
        for (model, system, gb), report in zip(specs, reports)
    ]
