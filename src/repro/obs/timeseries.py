"""Fleet time-series: fixed-cadence snapshots of per-replica health.

A :class:`FleetSeries` rides the cluster driver's dispatch loop and, on a
fixed virtual-clock cadence, snapshots every live replica's externally
observable health — queue depth, circuit-breaker state, degradation
rung, expert-cache hit rate, and VRAM occupancy — into a windowed store.
The sampler is a pure observer (it peeks at breaker state without
transitioning it), so attaching it never perturbs the run.

Samples export as JSONL (one object per sample) or CSV for plotting and
downstream analysis.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.cluster.observer import ClusterObserver
from repro.errors import TelemetryError

#: Column order for CSV export (matches FleetSample fields).
SAMPLE_FIELDS = (
    "time",
    "replica_id",
    "queue_depth",
    "breaker_state",
    "rung",
    "hit_rate",
    "vram_used_bytes",
    "vram_budget_bytes",
)


@dataclass(frozen=True)
class FleetSample:
    """One replica's health at one virtual-clock instant."""

    time: float
    replica_id: int
    queue_depth: int
    breaker_state: str
    rung: int
    hit_rate: float
    vram_used_bytes: int
    vram_budget_bytes: int

    def to_dict(self) -> dict:
        """JSON/CSV row form (field order matches SAMPLE_FIELDS)."""
        return asdict(self)


class FleetSeries(ClusterObserver):
    """Windowed store of :class:`FleetSample` rows on a fixed cadence.

    ``interval_seconds`` sets the sampling cadence on the virtual clock;
    ``max_samples`` bounds memory by keeping only the most recent window
    (0 means unbounded).  As a cluster observer it calls
    :meth:`maybe_sample` at every arrival — samples land only when the
    cadence has elapsed, so the series density is independent of request
    arrival density — and takes one closing snapshot when the fleet
    quiesces, so the series always covers the full run window.
    """

    def __init__(
        self, interval_seconds: float = 1.0, max_samples: int = 0
    ) -> None:
        if interval_seconds <= 0:
            raise TelemetryError(
                f"interval_seconds must be > 0 (got {interval_seconds})"
            )
        if max_samples < 0:
            raise TelemetryError(
                f"max_samples must be >= 0 (got {max_samples})"
            )
        self.interval_seconds = interval_seconds
        self.max_samples = max_samples
        self.samples: deque[FleetSample] = deque(
            maxlen=max_samples or None
        )
        self.dropped = 0
        self._next_due: float | None = None

    def __len__(self) -> int:
        return len(self.samples)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def on_arrival(self, driver, request) -> None:
        self.maybe_sample(request.arrival_time, driver)

    def on_quiesce(self, driver, time) -> None:
        self.sample(time, driver)

    def maybe_sample(self, now: float, driver) -> int:
        """Sample the fleet if the cadence has elapsed; returns rows added.

        Catches up by whole intervals when ``now`` jumped past several
        due times (quiet stretches between arrivals), sampling fleet
        state once at each missed tick — all at the state visible *now*,
        which is exact because nothing changes between dispatches.
        """
        if self._next_due is None:
            self._next_due = now
        added = 0
        while now >= self._next_due:
            added += self.sample(self._next_due, driver)
            self._next_due += self.interval_seconds
        return added

    def sample(self, now: float, driver) -> int:
        """Snapshot every live replica at virtual time ``now``."""
        added = 0
        for replica in driver.replicas:
            if replica.retired:
                continue
            pool = replica.engine.pool
            breaker = driver.breaker_for(replica.replica_id)
            record = FleetSample(
                time=now,
                replica_id=replica.replica_id,
                queue_depth=replica.outstanding_requests(now),
                breaker_state=(
                    breaker.peek(now) if breaker is not None else ""
                ),
                rung=driver.peek_rung(now),
                hit_rate=replica.report.hit_rate,
                vram_used_bytes=pool.used_bytes(),
                vram_budget_bytes=pool.cache_budget_bytes,
            )
            if (
                self.samples.maxlen is not None
                and len(self.samples) == self.samples.maxlen
            ):
                self.dropped += 1
            self.samples.append(record)
            added += 1
        return added

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def rows(self) -> list[dict]:
        """All retained samples as plain dicts, oldest first."""
        return [sample.to_dict() for sample in self.samples]

    def write_jsonl(self, path: str | Path) -> Path:
        """One JSON object per sample; returns the path."""
        path = Path(path)
        with path.open("w") as fh:
            for row in self.rows():
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        return path

    def write_csv(self, path: str | Path) -> Path:
        """CSV with a fixed header (:data:`SAMPLE_FIELDS`); returns path."""
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SAMPLE_FIELDS)
            writer.writeheader()
            for row in self.rows():
                writer.writerow(row)
        return path


def read_fleet_jsonl(path: str | Path) -> list[FleetSample]:
    """Load samples written by :meth:`FleetSeries.write_jsonl`."""
    samples = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                samples.append(FleetSample(**json.loads(line)))
    return samples
