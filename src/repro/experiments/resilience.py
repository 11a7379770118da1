"""Storm-lite: the resilience layer vs. cluster-scope chaos, A/B at equal seeds.

The chaos matrix (:mod:`repro.experiments.faults`) degrades the *devices*
inside one engine; this experiment degrades the *fleet* — replica
crashes, correlated zone outages, and inter-replica link windows scripted
through :class:`~repro.serving.faults.ClusterFaultConfig` — and asks the
only question that matters for the resilience layer: at the same seed and
the same fault timeline, does turning it on buy SLO attainment?

Both arms of every scenario run the tracked dispatch path (cluster-scope
faults force outcome accounting even with resilience off), so the two
attainment numbers share one denominator contract: every presented
request counts exactly once, shed and crash-failed included.  Without
that, the comparison would be exactly the accounting bug
:meth:`~repro.cluster.metrics.ClusterReport.slo_attainment` documents.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.config import ClusterSpec, ResilienceConfig
from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentConfig,
    calibrated_deadline,
    online_trace,
)
from repro.experiments.runner import SimCell, WorldCache, run_cells
from repro.serving.faults import (
    ClusterFaultConfig,
    FaultConfig,
    FaultSpec,
    ReplicaCrash,
    ZoneFailure,
)


@dataclass(frozen=True)
class StormScenario:
    """One named cluster-chaos timeline both arms are subjected to."""

    name: str
    cluster_faults: ClusterFaultConfig
    faults: FaultConfig | None = None
    """Optional per-replica device chaos riding along (stragglers etc.)."""


def default_storm_scenarios(
    seed: int = 0, crash_time: float = 8.0
) -> tuple[StormScenario, ...]:
    """The standard storm: one scenario per cluster-failure class.

    All timelines assume a fleet of at least three replicas and a trace
    long enough to outlive ``crash_time`` (the defaults of
    :func:`storm_rows` are sized for this).
    """
    return (
        StormScenario(
            "replica-crash",
            ClusterFaultConfig(
                crashes=(ReplicaCrash(time=crash_time, replica=0),)
            ),
        ),
        StormScenario(
            "crash-restart",
            ClusterFaultConfig(
                crashes=(
                    ReplicaCrash(
                        time=crash_time, replica=1, restart_delay=4.0
                    ),
                )
            ),
        ),
        StormScenario(
            "zone-outage",
            ClusterFaultConfig(
                zones=((0, 1),),
                zone_failures=(
                    ZoneFailure(
                        time=crash_time * 1.5, zone=0, restart_delay=6.0
                    ),
                ),
            ),
        ),
        StormScenario(
            "flaky-link",
            ClusterFaultConfig(
                link_faults=(
                    FaultSpec(
                        device=0,
                        start=crash_time / 2,
                        duration=crash_time * 2,
                        severity=2.0,
                        kind="link-degradation",
                    ),
                )
            ),
        ),
        StormScenario(
            "overload-straggler",
            ClusterFaultConfig(
                crashes=(ReplicaCrash(time=crash_time * 2, replica=2),)
            ),
            faults=FaultConfig(
                seed=seed,
                straggler_prob=0.5,
                straggler_seconds=4.0,
                straggler_factor=2.5,
            ),
        ),
    )


@dataclass(frozen=True)
class StormRow:
    """Outcome of one (scenario, arm) cell of the storm matrix."""

    scenario: str
    resilience: str
    """``off`` (tracked accounting only) or ``on`` (full layer)."""

    slo_attainment: float
    deadline_seconds: float
    served: int
    shed: int
    failed: int
    retries: int
    hedges: int
    hedge_wins: int
    breaker_opens: int
    crashes: int
    restarts: int
    lost_in_flight: int

    def format(self) -> str:
        """One printable storm-matrix row."""
        return (
            f"{self.scenario:20s} {self.resilience:3s} "
            f"slo={self.slo_attainment:6.3f} "
            f"served={self.served:3d} shed={self.shed:3d} "
            f"failed={self.failed:2d} retry={self.retries:2d} "
            f"hedge={self.hedges:2d}/{self.hedge_wins:2d} "
            f"breaker={self.breaker_opens:2d} "
            f"crash={self.crashes}/{self.restarts} "
            f"lost={self.lost_in_flight}"
        )


def default_storm_resilience(healthy_p95: float) -> ResilienceConfig:
    """The storm's ``on``-arm knobs, scaled to the fleet's healthy tail.

    Hedging fires when a primary's first token takes longer than the
    healthy p95 end-to-end latency, and a served request counts as a
    breaker failure past twice that — both thresholds a healthy fleet
    essentially never crosses, so the layer only engages under faults.
    """
    budget = max(healthy_p95, 0.1)
    return ResilienceConfig(
        max_attempts_per_request=3,
        hedge_after_seconds=budget,
        breaker_failure_ttft_seconds=2.0 * budget,
        breaker_min_samples=3,
        breaker_window=6,
        breaker_open_seconds=4.0,
    )


def storm_rows(
    scenarios: tuple[StormScenario, ...] | None = None,
    config: ExperimentConfig | None = None,
    system: str = "fmoe",
    cluster: ClusterSpec | None = None,
    resilience: ResilienceConfig | None = None,
    trace_requests: int = 24,
    rate_seconds: float = 1.5,
    deadline_multiplier: float = 3.0,
    jobs: int | None = 1,
    cache: WorldCache | None = None,
    validate: bool = False,
) -> list[StormRow]:
    """Run the storm matrix: every scenario, resilience off vs. on.

    A healthy reference run (no faults, no resilience) sets the SLO
    deadline at ``deadline_multiplier`` times its p95 latency and — when
    ``resilience`` is not supplied — calibrates the on-arm's hedging and
    breaker thresholds via :func:`default_storm_resilience`.  Both arms
    of a scenario then replay the identical trace against the identical
    fault timeline; the only difference is ``spec.resilience``.

    Rows come back in (scenario, off, on) order.  ``validate`` attaches
    the invariant monitors to every cell, making the storm double as a
    stress test of the resilience bookkeeping.
    """
    base = config or ExperimentConfig()
    spec = cluster or ClusterSpec(replicas=3, router="least-outstanding")
    if spec.resilience is not None:
        raise ConfigError(
            "pass the on-arm knobs via resilience=, not on the spec "
            "(the spec is shared by both arms)"
        )
    matrix = (
        scenarios
        if scenarios is not None
        else default_storm_scenarios(base.seed)
    )
    template = SimCell(
        config=base,
        system=system,
        requests=tuple(
            online_trace(base, trace_requests, rate_seconds, seed_offset=20)
        ),
        respect_arrivals=True,
        cluster=spec,
        validate=validate,
    )
    (reference,) = run_cells([template], cache=cache)
    deadline = calibrated_deadline(reference, deadline_multiplier)
    armed = (
        resilience
        if resilience is not None
        else default_storm_resilience(reference.percentile_latency(95))
    )

    arms = (("off", spec), ("on", replace(spec, resilience=armed)))
    keys = [(scenario, arm) for scenario in matrix for arm in arms]
    cells = [
        replace(
            template,
            faults=scenario.faults,
            cluster=arm_spec,
            cluster_faults=scenario.cluster_faults,
        )
        for scenario, (_, arm_spec) in keys
    ]
    rows: list[StormRow] = []
    for (scenario, (arm, _)), report in zip(
        keys, run_cells(cells, jobs=jobs, cache=cache)
    ):
        res = report.resilience
        rows.append(
            StormRow(
                scenario=scenario.name,
                resilience=arm,
                slo_attainment=report.slo_attainment(deadline),
                deadline_seconds=deadline,
                served=sum(
                    1 for o in report.outcomes if o.outcome == "served"
                ),
                shed=res.total_shed,
                failed=res.failed,
                retries=res.retry_dispatches,
                hedges=res.hedges,
                hedge_wins=res.hedge_wins,
                breaker_opens=res.breaker_opens,
                crashes=res.crashes,
                restarts=res.restarts,
                lost_in_flight=res.lost_in_flight,
            )
        )
    return rows
