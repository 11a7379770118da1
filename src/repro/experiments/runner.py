"""Parallel experiment runner: fan independent cells across processes.

The paper's evaluation is a cross-product of (model, dataset, system,
budget, seed) cells, and every cell is an independent, fully seeded
simulation: all randomness derives from the cell's own configuration and
the engine runs on a virtual clock, so the report a cell produces is a
pure function of its :class:`SimCell`.  That makes parallel execution
safe by construction — :func:`run_cells` runs cells across a process
pool and returns the reports in submission order, so a ``jobs=N`` sweep
is byte-identical to a sequential one.  There is one fan-out path:
``jobs=1`` runs in-process (the sequential reference) and ``jobs>1``
fans out over worker processes.

Two supporting pieces keep the fan-out fast:

- :class:`WorldCache` — one materialized :class:`World` per
  (model, dataset, num_requests, num_test_requests, seed) key, shared
  across budgets and systems instead of being rebuilt per experiment
  module.  Each worker process owns a private cache (worlds are built at
  most once per worker; with a ``fork`` start method workers inherit
  the parent's already-built worlds for free).
- Cells are dispatched in contiguous chunks, so consecutive cells of one
  world land on the same worker and hit its cache.

Telemetry under parallelism: :class:`~repro.obs.telemetry.Telemetry`
objects and event sinks hold process-local state (tracers, registries,
ring buffers) and are **never shared across workers**.  A cell that wants
event accounting sets ``ring_buffer_events``; the worker attaches its own
bounded sink, and the per-worker drop counters come back inside each
:class:`~repro.serving.metrics.ServingReport`.  :func:`merge_reports`
sums those counters (``distinct_sinks=True``) so drops from different
workers are aggregated rather than collapsed by the shared-sink ``max``
rule.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from repro.cluster.config import ClusterSpec
from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentConfig,
    World,
    build_world,
    run_system,
)
from repro.serving.faults import (
    ClusterFaultConfig,
    FaultConfig,
    FaultSchedule,
    SLOConfig,
)
from repro.serving.metrics import ServingReport
from repro.serving.request import Request

#: ExperimentConfig fields that determine world materialization.  Budget,
#: prefetch, store, batch, and hardware knobs only affect how a world is
#: *served*, never what :func:`build_world` produces.
WORLD_KEY_FIELDS: tuple[str, ...] = (
    "model_name",
    "dataset",
    "num_requests",
    "num_test_requests",
    "seed",
)


def world_key(config: ExperimentConfig) -> tuple:
    """The (model, dataset, num_requests, num_test_requests, seed) key."""
    return tuple(getattr(config, name) for name in WORLD_KEY_FIELDS)


class WorldCache:
    """Keyed cache of materialized worlds.

    ``get`` builds a world on first use of a key and afterwards returns
    the cached materialization rebound to the requested config, so two
    configs differing only in serving knobs (budget, prefetch distance,
    store capacity, hardware) share one profiled world.  Worlds are
    treated as immutable by the serving path (requests are frozen and
    every run gets a fresh model and policy), which is what makes the
    sharing safe.
    """

    def __init__(self) -> None:
        self._worlds: dict[tuple, World] = {}
        self.builds = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._worlds)

    def clear(self) -> None:
        """Drop every cached world (counters included)."""
        self._worlds.clear()
        self.builds = 0
        self.hits = 0

    def get(self, config: ExperimentConfig) -> World:
        """The world for ``config``, built at most once per key."""
        key = world_key(config)
        world = self._worlds.get(key)
        if world is None:
            self.builds += 1
            world = build_world(config)
            self._worlds[key] = world
        else:
            self.hits += 1
        if world.config == config:
            return world
        # Same materialization, different serving knobs: rebind the
        # config so run_system resolves budgets/hardware from the
        # caller's configuration, not the first builder's.
        return World(
            config=config,
            model_config=world.model_config,
            warm_traces=world.warm_traces,
            test_requests=world.test_requests,
        )


#: Per-process cache used by cells that do not pass an explicit cache.
#: Worker processes each own one (inherited pre-warmed under ``fork``).
_PROCESS_CACHE = WorldCache()


def process_cache() -> WorldCache:
    """This process's module-level world cache."""
    return _PROCESS_CACHE


def clear_process_cache() -> None:
    """Reset the module-level cache (cold-start benchmarking/tests)."""
    _PROCESS_CACHE.clear()


@dataclass(frozen=True)
class SimCell:
    """One independent simulation: everything a worker needs, picklable.

    Randomness (dataset sampling, routing, faults) derives entirely from
    the seeds inside ``config``/``faults``/``requests``, so running a
    cell in any process at any time produces the same report.
    """

    config: ExperimentConfig
    system: str
    cache_budget_bytes: int | None = None
    warm: bool = True
    respect_arrivals: bool = False
    requests: tuple[Request, ...] | None = None
    faults: FaultConfig | None = None
    slo: SLOConfig | None = None
    ring_buffer_events: int | None = None
    """Attach a per-worker bounded event sink of this capacity; drop
    counts surface in ``ServingReport.events_dropped``.  Sinks are never
    shared across processes."""

    cluster: ClusterSpec | None = None
    """Run this cell as a multi-replica cluster simulation instead of a
    single engine; the report comes back as a
    :class:`~repro.cluster.metrics.ClusterReport`.  Warm-up is governed
    by the spec's own ``warm`` flag (``SimCell.warm`` is ignored), and
    arrivals are always respected — cluster routing is an online
    decision by construction."""

    cluster_faults: ClusterFaultConfig | None = None
    """Scripted cluster-scope chaos (replica crashes, zone outages, link
    degradation) for cluster cells; switches the driver to tracked
    outcome accounting.  Ignored for single-engine cells."""

    validate: bool = False
    """Attach runtime invariant monitors to this cell's engine(s) and
    raise :class:`~repro.errors.ValidationError` on any breach.  The
    monitors only observe the event stream, so a validated cell's report
    is byte-identical to an unvalidated one."""


def run_cell(cell: SimCell, cache: WorldCache | None = None) -> ServingReport:
    """Execute one cell in this process (worlds come from ``cache``)."""
    cache = cache if cache is not None else _PROCESS_CACHE
    world = cache.get(cell.config)
    if cell.cluster is not None:
        if cell.ring_buffer_events is not None:
            raise ConfigError(
                "cluster cells do not support ring_buffer_events "
                "(replica engines own their sinks)"
            )
        # Imported lazily: the cluster driver pulls in the serving stack,
        # while this module stays importable for cheap cell construction.
        from repro.cluster.driver import run_cluster

        return run_cluster(
            world,
            cell.system,
            cell.cluster,
            requests=(
                list(cell.requests) if cell.requests is not None else None
            ),
            fault_config=cell.faults,
            cluster_faults=cell.cluster_faults,
            slo=cell.slo,
            cache_budget_bytes=cell.cache_budget_bytes,
            validate=cell.validate,
        )
    observers = []
    if cell.ring_buffer_events is not None:
        from repro.obs.sinks import RingBufferSink

        observers.append(RingBufferSink(cell.ring_buffer_events))
    monitor = None
    if cell.validate:
        from repro.validate.monitors import MonitorSuite

        monitor = MonitorSuite()
    requests = list(cell.requests) if cell.requests is not None else None
    report = run_system(
        world,
        cell.system,
        warm=cell.warm,
        requests=requests,
        respect_arrivals=cell.respect_arrivals,
        cache_budget_bytes=cell.cache_budget_bytes,
        faults=FaultSchedule(cell.faults) if cell.faults is not None else None,
        slo=cell.slo,
        observers=observers,
        monitor=monitor,
    )
    if monitor is not None:
        admitted = len(
            requests if requests is not None else world.test_requests
        )
        monitor.finish(report, admitted=admitted)
        monitor.raise_if_violated(
            f"cell {cell.system} on {cell.config.model_name}"
        )
    return report


def _worker_run(cell: SimCell) -> ServingReport:
    """Pool entry point: run one cell against the worker's own cache."""
    return run_cell(cell)


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value; None or <= 0 means all CPUs."""
    if jobs is None or jobs <= 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            return max(1, os.cpu_count() or 1)
    return jobs


def _pool_context():
    """Prefer ``fork`` (workers inherit built worlds) over ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _chunksize(num_cells: int, workers: int) -> int:
    """Contiguous chunks: same-world cells stay on one worker's cache
    while still leaving a few chunks per worker for load balancing."""
    return max(1, math.ceil(num_cells / (workers * 4)))


def run_cells(
    cells: Sequence[SimCell],
    jobs: int | None = 1,
    cache: WorldCache | None = None,
) -> list[ServingReport]:
    """Run every cell; reports come back in submission order.

    ``jobs=1`` executes sequentially in-process against ``cache`` (or
    the process cache) and is the reference; ``jobs>1`` fans cells
    across a process pool whose workers each own a world cache.  Both
    paths run the exact same per-cell code on the same virtual clock,
    so the results are identical — parallelism only changes wall-clock.
    """
    cells = list(cells)
    for cell in cells:
        if not isinstance(cell, SimCell):
            raise ConfigError(f"expected SimCell, got {type(cell).__name__}")
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(cells) <= 1:
        return [run_cell(cell, cache) for cell in cells]
    workers = min(jobs, len(cells))
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context()
    ) as pool:
        return list(
            pool.map(
                _worker_run,
                cells,
                chunksize=_chunksize(len(cells), workers),
            )
        )


def merge_reports(reports: Sequence[ServingReport]) -> ServingReport:
    """Fold per-cell reports into one, summing per-worker drop counters.

    Every worker owns its own sink, so ``events_dropped`` values are
    independent tallies and must add (``distinct_sinks=True``) — the
    shared-sink ``max`` rule of :meth:`ServingReport.absorb` would lose
    drops recorded by all but the worst worker.
    """
    merged = ServingReport()
    names = {r.policy_name for r in reports if r.policy_name}
    if len(names) == 1:
        merged.policy_name = names.pop()
    for report in reports:
        merged.absorb(report, distinct_sinks=True)
    return merged
