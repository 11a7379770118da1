"""Empirical check of the §4.4 sphere-covering capacity analysis.

The paper argues (via Minimum Sphere Covering results) that maintaining at
least ``2·L·J`` expert maps guarantees a ≥75%-similar map exists for any
new iteration, and ``(1/2)·L·J·ln(L·J)`` maps push the guarantee to 98%.
This module measures the actual coverage the simulated routing space
exhibits: fill a store with ``C`` maps drawn from random contexts, probe it
with fresh iterations, and record the best trajectory similarity found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.matcher import IncrementalTrajectoryMatch
from repro.core.store import ExpertMapStore
from repro.errors import ConfigError
from repro.moe.config import MoEModelConfig
from repro.moe.model import MoEModel


@dataclass(frozen=True)
class CoveragePoint:
    """Coverage statistics for one store capacity."""

    capacity: int
    mean_best_similarity: float
    fraction_above_75: float
    fraction_above_98: float


def paper_capacity_bounds(config: MoEModelConfig) -> tuple[int, int]:
    """The §4.4 capacities: (2LJ, ½·LJ·ln(LJ))."""
    lj = config.num_layers * config.experts_per_layer
    return 2 * lj, int(math.ceil(0.5 * lj * math.log(lj)))


def _sample_maps(
    model: MoEModel, count: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(embedding, map) pairs from random (cluster, prompt, phase) draws."""
    profile = model.config.routing
    out = []
    for _ in range(count):
        cluster = int(rng.integers(profile.num_clusters))
        session = model.start_session(
            cluster,
            input_tokens=8,
            output_tokens=2,
            seed=int(rng.integers(2**31)),
        )
        session.next_iteration()  # skip prefill
        routing = session.next_iteration()
        out.append((session.embedding, routing.distributions))
    return out


def coverage_curve(
    config: MoEModelConfig,
    capacities: tuple[int, ...],
    num_probes: int = 64,
    seed: int = 0,
) -> list[CoveragePoint]:
    """Best-match similarity of fresh probes vs store capacity."""
    if not capacities:
        raise ConfigError("need at least one capacity")
    if num_probes < 1:
        raise ConfigError("num_probes must be >= 1")
    model = MoEModel(config, seed=seed)
    rng = np.random.default_rng(seed + 1)
    history = _sample_maps(model, max(capacities), rng)
    probes = _sample_maps(model, num_probes, rng)
    points = []
    for capacity in capacities:
        store = ExpertMapStore(
            capacity=capacity,
            num_layers=config.num_layers,
            num_experts=config.experts_per_layer,
            embedding_dim=config.embedding_dim,
            prefetch_distance=min(3, config.num_layers),
        )
        for embedding, grid in history[:capacity]:
            store.add(embedding, grid)
        best = []
        for _, grid in probes:
            result = IncrementalTrajectoryMatch(store, 1).observe_layers(
                grid[None, :, :]
            )
            best.append(float(result.scores[-1, 0]))
        best_arr = np.array(best)
        points.append(
            CoveragePoint(
                capacity=capacity,
                mean_best_similarity=float(best_arr.mean()),
                fraction_above_75=float((best_arr >= 0.75).mean()),
                fraction_above_98=float((best_arr >= 0.98).mean()),
            )
        )
    return points
