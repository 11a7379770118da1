"""Fig. 10: CDF of request latency under online serving.

History structures start *empty* (fMoE's Expert Map Store, MoE-Infinity's
EAM collection); 64 requests arrive on an Azure-shaped trace and each
system serves them in arrival order.  fMoE learns its maps on the fly via
the step-5 store updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import (
    ExperimentConfig,
    build_world,
    online_trace,
    run_system,
    SYSTEM_NAMES,
)


@dataclass(frozen=True)
class OnlineCDF:
    model: str
    system: str
    latencies: np.ndarray
    fractions: np.ndarray

    def percentile(self, q: float) -> float:
        """The ``q``-th latency percentile of this CDF."""
        if self.latencies.size == 0:
            return 0.0
        return float(np.percentile(self.latencies, q))


def online_cdfs(
    models: tuple[str, ...] = ("mixtral-8x7b",),
    dataset: str = "lmsys-chat-1m",
    systems: tuple[str, ...] = SYSTEM_NAMES,
    num_requests: int = 64,
    config: ExperimentConfig | None = None,
) -> list[OnlineCDF]:
    """Request-latency CDFs per (model, system) under cold-start replay.

    Every model replays one arrival trace of ``num_requests`` requests
    at a 2 s mean inter-arrival gap.
    """
    base = (config or ExperimentConfig()).with_(dataset=dataset)
    requests = online_trace(base, num_requests, 2.0, seed_offset=10)
    results = []
    for model in models:
        world = build_world(base.with_(model_name=model, num_requests=8))
        for system in systems:
            report = run_system(
                world,
                system,
                warm=False,  # online: cold history
                requests=requests,
                respect_arrivals=True,
            )
            lat = np.sort(report.e2e_latencies())
            fractions = (
                np.arange(1, lat.size + 1) / lat.size
                if lat.size
                else np.array([])
            )
            results.append(
                OnlineCDF(
                    model=model,
                    system=system,
                    latencies=lat,
                    fractions=fractions,
                )
            )
    return results
