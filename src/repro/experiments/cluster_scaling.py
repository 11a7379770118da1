"""Router comparison across cluster sizes (fleet-level fMoE).

The paper's evaluation stops at one serving instance; this experiment
asks how fMoE's semantic locality composes with horizontal scaling.  Each
cell serves the same online arrival trace on a simulated cluster of N
cold-started replicas under one of the three routers, and rows report
the fleet-wide expert hit rate, the affinity hit rate (how often the
semantic router actually placed by store match), the load-imbalance
coefficient, and the latency tails.

Cold starts matter: per-replica expert-map stores diverge as each
replica learns the requests it was routed, which is exactly the locality
semantic-affinity routing exploits — similar prompts return to the
replica that already holds their expert maps, so the fleet's aggregate
hit rate beats topology-blind round-robin placement.

Every cell is one picklable :class:`SimCell`, so the full (router ×
replica-count) grid fans out across a process pool.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.config import ROUTER_NAMES, ClusterSpec
from repro.cluster.metrics import ClusterReport
from repro.experiments.common import ExperimentConfig, online_trace
from repro.experiments.runner import SimCell, WorldCache, run_cells


@dataclass(frozen=True)
class ClusterScalingRow:
    """Outcome of one (router, replica-count) cluster cell."""

    router: str
    replicas: int
    hit_rate: float
    affinity_hit_rate: float
    load_imbalance: float
    mean_ttft_seconds: float
    p95_e2e_seconds: float
    shed_requests: int

    def format(self) -> str:
        """One printable router-comparison row."""
        return (
            f"{self.router:18s} x{self.replicas} "
            f"hit={self.hit_rate:6.4f} "
            f"affinity={self.affinity_hit_rate:5.3f} "
            f"imbalance={self.load_imbalance:5.3f} "
            f"ttft={self.mean_ttft_seconds:6.2f}s "
            f"p95={self.p95_e2e_seconds:7.2f}s "
            f"shed={self.shed_requests:2d}"
        )


def cluster_scaling_rows(
    replica_counts: tuple[int, ...] = (1, 2, 4),
    routers: tuple[str, ...] = ROUTER_NAMES,
    config: ExperimentConfig | None = None,
    system: str = "fmoe",
    trace_requests: int = 32,
    rate_seconds: float = 1.0,
    jobs: int | None = 1,
    cache: WorldCache | None = None,
    validate: bool = False,
) -> list[ClusterScalingRow]:
    """Run the (router × replica-count) cluster grid.

    All cells replay one shared trace against cold-started replicas
    (``warm=False`` — see the module docstring), so the only variable per
    row pair is the placement policy.  ``jobs`` fans the grid across a
    process pool; rows come back in (router, replicas) order regardless.
    ``validate`` attaches invariant monitors to every cell (see
    :class:`SimCell`).
    """
    base = config or ExperimentConfig()
    template = SimCell(
        config=base,
        system=system,
        requests=tuple(
            online_trace(base, trace_requests, rate_seconds, seed_offset=10)
        ),
        respect_arrivals=True,
        validate=validate,
    )
    grid = [
        (router, count) for router in routers for count in replica_counts
    ]
    cells = [
        replace(
            template,
            cluster=ClusterSpec(replicas=count, router=router, warm=False),
        )
        for router, count in grid
    ]
    reports = run_cells(cells, jobs=jobs, cache=cache)
    rows: list[ClusterScalingRow] = []
    for (router, count), report in zip(grid, reports):
        assert isinstance(report, ClusterReport)
        rows.append(
            ClusterScalingRow(
                router=router,
                replicas=count,
                hit_rate=report.hit_rate,
                affinity_hit_rate=report.affinity_hit_rate,
                load_imbalance=report.load_imbalance(),
                mean_ttft_seconds=report.mean_ttft(),
                p95_e2e_seconds=report.percentile_latency(95),
                shed_requests=report.shed_requests,
            )
        )
    return rows
