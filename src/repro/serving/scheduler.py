"""Admission scheduling for online serving.

The paper's online experiment replays trace arrivals in FCFS order.  Real
serving frontends choose *which* queued request to run next; this module
provides that dispatch loop over the engine plus two classic disciplines:

- :class:`FCFSScheduler` — first come, first served (the paper's replay);
- :class:`SJFScheduler` — shortest job first, using prompt length as the
  job-size proxy (the output length is unknown at dispatch time).

When the engine carries an :class:`~repro.serving.faults.SLOConfig` with a
queue-delay budget, requests whose queueing delay already exceeds the
budget are shed at dispatch time (counted in the merged report) instead of
inflating the tail.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.errors import ConfigError
from repro.serving.engine import ServingEngine
from repro.serving.metrics import ServingReport
from repro.serving.request import Request


class Scheduler(Protocol):
    """Picks the next request to dispatch from the arrived backlog."""

    name: str

    def select(self, pending: Sequence[Request], now: float) -> Request:
        """Pick the next request from the arrived backlog."""
        ...


class FCFSScheduler:
    """First come, first served."""

    name = "fcfs"

    def select(self, pending: Sequence[Request], now: float) -> Request:
        """Earliest arrival wins; request id breaks ties."""
        return min(pending, key=lambda r: (r.arrival_time, r.request_id))


class SJFScheduler:
    """Shortest (predicted) job first; prompt length as the size proxy."""

    name = "sjf"

    def select(self, pending: Sequence[Request], now: float) -> Request:
        """Shortest prompt wins; arrival then id break ties."""
        return min(
            pending, key=lambda r: (r.input_tokens, r.arrival_time, r.request_id)
        )


def run_scheduled(
    engine: ServingEngine,
    requests: Sequence[Request],
    scheduler: Scheduler,
) -> ServingReport:
    """Serve an online trace one request at a time under a discipline.

    The engine idles until the next arrival whenever the backlog is empty;
    otherwise the scheduler picks the next request among those that have
    arrived.  Latencies include queueing (measured from trace arrival).
    """
    if not requests:
        raise ConfigError("need at least one request")
    backlog = sorted(requests, key=lambda r: r.arrival_time)
    pending: list[Request] = []
    report = ServingReport(policy_name=engine.policy.name)
    index = 0
    while pending or index < len(backlog):
        now = engine.now
        while index < len(backlog) and backlog[index].arrival_time <= now:
            pending.append(backlog[index])
            index += 1
        if not pending:
            engine.idle_until(backlog[index].arrival_time)
            continue
        chosen = scheduler.select(pending, engine.now)
        pending.remove(chosen)
        engine.announce_dispatch(
            chosen.request_id, scheduler.name, len(pending)
        )
        partial = engine.run(
            [chosen], batch_size=1, respect_arrivals=True
        )
        # The engine load-sheds overdue requests itself (engine.slo), so
        # the partial report already carries shed/fault counters — absorb
        # folds the counters and keeps the peak-gauge high-water marks.
        report.absorb(partial)
    report.peak_cache_bytes = max(
        report.peak_cache_bytes, engine.pool.used_bytes()
    )
    report.peak_kv_bytes = max(
        report.peak_kv_bytes, engine.kv_tracker.peak_bytes
    )
    return report
