"""Generic grid sweeps over (model, dataset, system, budget) with CSV output.

The per-figure experiment modules cover the paper's artifacts; this module
is the open-ended tool: sweep any combination of models, datasets, systems,
and cache budgets, collect one row per cell, and export CSV for external
analysis.  Used by ``python -m repro grid``.  Every cell is a
:class:`~repro.experiments.runner.SimCell`, so ``--jobs N`` fans the grid
across worker processes and the CSV is byte-identical to ``--jobs 1``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.errors import ConfigError
from repro.experiments.common import ExperimentConfig, SYSTEM_NAMES
from repro.experiments.runner import SimCell, WorldCache, run_cells
from repro.moe.config import get_model_config


@dataclass(frozen=True)
class GridCell:
    model: str
    dataset: str
    system: str
    cache_budget_gb: float
    ttft_seconds: float
    tpot_seconds: float
    hit_rate: float
    peak_cache_gb: float
    peak_kv_gb: float


GRID_CSV_FIELDS = (
    "model",
    "dataset",
    "system",
    "cache_budget_gb",
    "ttft_seconds",
    "tpot_seconds",
    "hit_rate",
    "peak_cache_gb",
    "peak_kv_gb",
)


def run_grid(
    models: Sequence[str] = ("mixtral-8x7b",),
    datasets: Sequence[str] = ("lmsys-chat-1m",),
    systems: Sequence[str] = SYSTEM_NAMES,
    budgets_gb: Sequence[float] | None = None,
    config: ExperimentConfig | None = None,
    jobs: int | None = 1,
    cache: WorldCache | None = None,
    validate: bool = False,
) -> list[GridCell]:
    """Run every grid cell; ``budgets_gb=None`` uses the default budget.

    ``jobs`` fans independent cells across a process pool (0 = all
    cores; see :func:`~repro.experiments.runner.run_cells`); results
    are merged in sweep order, so the output is identical to a
    sequential run.  Worlds are shared across budgets and systems
    through ``cache`` (or each worker's process cache).  ``validate``
    attaches runtime invariant monitors to every cell and raises
    :class:`~repro.errors.ValidationError` on the first breach.
    """
    if not models or not datasets or not systems:
        raise ConfigError("models, datasets, and systems must be non-empty")
    base = config or ExperimentConfig()
    specs: list[tuple[str, str, str, float]] = []
    cells: list[SimCell] = []
    budget_list: list[int | None] = (
        [None] if budgets_gb is None else [int(g * 1e9) for g in budgets_gb]
    )
    for model in models:
        for dataset in datasets:
            world_config = base.with_(model_name=model, dataset=dataset)
            # Resolved once per world from the *world's* config, so a
            # config whose budget rule depends on the model reports
            # exactly the budget the cells below actually ran with.
            default_budget = world_config.resolve_budget(
                get_model_config(model)
            )
            for budget in budget_list:
                effective = budget if budget is not None else default_budget
                for system in systems:
                    specs.append((model, dataset, system, effective / 1e9))
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
        GridCell(
            model=model,
            dataset=dataset,
            system=system,
            cache_budget_gb=budget_gb,
            ttft_seconds=report.mean_ttft(),
            tpot_seconds=report.mean_tpot(),
            hit_rate=report.hit_rate,
            peak_cache_gb=report.peak_cache_bytes / 1e9,
            peak_kv_gb=report.peak_kv_bytes / 1e9,
        )
        for (model, dataset, system, budget_gb), report in zip(specs, reports)
    ]


def grid_to_csv(
    cells: Sequence[GridCell], path: str | Path | None = None
) -> str:
    """Render grid cells as CSV; optionally write to ``path``."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=GRID_CSV_FIELDS)
    writer.writeheader()
    for cell in cells:
        writer.writerow({field: getattr(cell, field) for field in GRID_CSV_FIELDS})
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text
