"""The benchmark's workloads and the outcome each serve produces.

Every workload is a *cell*: ``setup(seed)`` builds everything the serve
needs (dataset sampling, warm-trace profiling, policy warm-up, cluster
construction) and ``serve(state)`` is the one call the benchmark times.
``monitored(state)`` repeats the serve with the simulator's invariant
monitors attached; the monitors only observe, so its report must hash
identically to the unmonitored one.  census-1m additionally has
``census(state)``: the full streamed traffic day.

Every workload serves a fixed request stream: a canonical dataset sample
(:data:`REQUEST_SEED`) or the default traffic day (:data:`DAY_SEED`).  The
run's seed builds the world around it: the warm-history sample and the
simulated model's routing seed, so every request's gate trace, the policy's
expert-map store and every simulated latency differ from seed to seed,
while request counts and lengths do not.  Lengths set how much work a
request is: drawn afresh per seed, a few dozen requests moved
``sim_req_per_s`` by 14-30% (IQR over median, 5 seeds, 2-CPU host) and the
overloaded storm cluster's median TTFT by 54%.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from itertools import islice

from repro.cluster.driver import ClusterDriver
from repro.cluster.metrics import cluster_report_to_json
from repro.errors import ValidationError
from repro.experiments.common import (
    ExperimentConfig,
    build_world,
    make_engine,
    run_system,
)
from repro.experiments.storm import storm_spec
from repro.serving.export import report_to_json
from repro.validate.monitors import MonitorSuite
from repro.workloads import traffic
from repro.workloads.datasets import make_dataset

#: Requests in the default three-tenant day (the storm's "1m" scale).
DAY_REQUESTS = 1_000_000

#: Seed of the default day (the one ``repro storm`` replays by default).
DAY_SEED = 0

#: Seed of the engine workloads' served dataset sample.
REQUEST_SEED = 0


@dataclass
class Outcome:
    """What one serve produced, reduced to what the benchmark checks."""

    canonical: str
    """The program's own canonical JSON of the report (hashed)."""

    offered: int
    served: int
    shed: int
    failed: int
    ttft: list[float]
    """Independent first-token samples: one per served request, except
    that requests sharing one batched prefill give one sample."""

    tpot: list[float]
    """Every inter-token gap of every served request."""

    slo_met: int
    """Served requests whose first token came within the TTFT limit."""

    hits: int
    misses: int
    queue_waits: list[float]
    reports: list
    """The engine-level ServingReports (one per replica)."""

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.canonical.encode()).hexdigest()

    def conserved(self) -> bool:
        return self.served + self.shed + self.failed == self.offered


def _engine_outcome(report, offered: int, ttft_limit: float) -> Outcome:
    served = report.requests
    return Outcome(
        canonical=report_to_json(report),
        offered=offered,
        served=len(served),
        shed=report.shed_requests,
        failed=0,
        ttft=[t for _, t in sorted({(r.start_time, r.ttft) for r in served})],
        tpot=[gap for r in served for gap in r.decode_latencies],
        slo_met=sum(1 for r in served if r.ttft <= ttft_limit),
        hits=report.hits,
        misses=report.misses,
        queue_waits=[r.start_time - r.arrival_time for r in served],
        reports=[report],
    )


def _warmed_engine(world):
    """A fresh fMoE engine for ``world`` with its policy warmed."""
    engine = make_engine(world, "fmoe")
    engine.policy.warm(world.warm_traces)
    return engine


def _world(seed: int, model="mixtral-8x7b", dataset="lmsys-chat-1m"):
    """The default-sized world (its warm side only) for one seed."""
    return build_world(
        ExperimentConfig(
            model_name=model,
            dataset=dataset,
            num_test_requests=0,
            seed=seed,
        )
    )


class EngineCell:
    """One fMoE engine serving a sampled dataset offline, back to back."""

    def __init__(
        self,
        model: str,
        dataset: str,
        requests: int,
        batch_size: int,
        ttft_limit: float,
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.requests = requests
        self.batch_size = batch_size
        self.ttft_limit = ttft_limit

    def setup(self, seed: int):
        world = _world(seed, self.model, self.dataset)
        requests = make_dataset(
            self.dataset, self.requests, seed=REQUEST_SEED
        )
        return world, _warmed_engine(world), requests

    def engines(self, state) -> list:
        """The engines a serve of ``state`` runs on."""
        return [state[1]]

    def serve(self, state) -> Outcome:
        _, engine, requests = state
        report = engine.run(requests, batch_size=self.batch_size)
        return _engine_outcome(report, len(requests), self.ttft_limit)

    def monitored(self, state) -> tuple[Outcome, int]:
        world, _, requests = state
        suite = MonitorSuite()
        report = run_system(
            world,
            "fmoe",
            requests=requests,
            batch_size=self.batch_size,
            monitor=suite,
        )
        suite.finish(report, admitted=len(requests))
        outcome = _engine_outcome(report, len(requests), self.ttft_limit)
        return outcome, suite.total_violations


class StormCell:
    """The default 1M-request day's opening arrivals on the storm cluster."""

    def __init__(self, arrivals: int, ttft_limit: float) -> None:
        self.arrivals = arrivals
        self.ttft_limit = ttft_limit

    def setup(self, seed: int):
        world = _world(seed)
        day = traffic.default_storm_traffic(DAY_REQUESTS, seed=DAY_SEED)
        window = list(islice(traffic.stream_traffic(day), self.arrivals))
        return world, ClusterDriver(world, "fmoe", storm_spec()), window

    def engines(self, state) -> list:
        """The engines a serve of ``state`` runs on."""
        return [replica.engine for replica in state[1].replicas]

    def _outcome(self, report, offered: int) -> Outcome:
        served = [o for o in report.outcomes if o.outcome == "served"]
        machine = report.aggregate.requests
        return Outcome(
            canonical=cluster_report_to_json(report),
            offered=offered,
            served=len(served),
            shed=sum(1 for o in report.outcomes if o.outcome == "shed"),
            failed=sum(1 for o in report.outcomes if o.outcome == "failed"),
            ttft=[o.ttft for o in served],
            tpot=[gap for r in machine for gap in r.decode_latencies],
            slo_met=sum(1 for o in served if o.ttft <= self.ttft_limit),
            hits=report.aggregate.hits,
            misses=report.aggregate.misses,
            queue_waits=[r.start_time - r.arrival_time for r in machine],
            reports=list(report.replica_reports),
        )

    def serve(self, state) -> Outcome:
        _, driver, window = state
        return self._outcome(driver.run(window), len(window))

    def monitored(self, state) -> tuple[Outcome, int]:
        world, _, window = state
        driver = ClusterDriver(world, "fmoe", storm_spec(), validate=True)
        try:
            report = driver.run(window)
        except ValidationError:
            report = driver.report  # ClusterDriver.violations keeps them
        return self._outcome(report, len(window)), len(driver.violations)


class CensusCell(EngineCell):
    """The default 1M-request day streamed through the census.

    The day's opening arrivals are also served back to back on one engine
    (the default Mixtral/LMSYS world), so the streamed requests are shown
    to be servable and every end-to-end metric has a value here too.
    """

    def __init__(self, requests: int, ttft_limit: float) -> None:
        super().__init__(
            "mixtral-8x7b", "lmsys-chat-1m", requests, 1, ttft_limit
        )

    def setup(self, seed: int):
        day = traffic.default_storm_traffic(DAY_REQUESTS, seed=DAY_SEED)
        opening = list(islice(traffic.stream_traffic(day), self.requests))
        world = _world(seed)
        return world, _warmed_engine(world), opening, day

    def serve(self, state) -> Outcome:
        return super().serve(state[:3])

    def monitored(self, state) -> tuple[Outcome, int]:
        return super().monitored(state[:3])

    @staticmethod
    def census(state, lap_every: int, laps: list[float]):
        """Stream the whole day into a census; returns (census, arrivals).

        ``laps`` receives a perf-counter stamp at the start and after
        every ``lap_every`` arrivals, so the rate can be read per lap.
        """
        arrivals = 0

        def lapped(stream):
            nonlocal arrivals
            for request in stream:
                arrivals += 1
                if arrivals % lap_every == 0:
                    laps.append(time.perf_counter())
                yield request

        laps.append(time.perf_counter())
        day = state[3]
        census = traffic.traffic_census(lapped(traffic.stream_traffic(day)))
        return census, arrivals


def census_digest(census) -> str:
    """Hash of the census's canonical JSON form."""
    text = json.dumps(census.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
