"""Observability: span tracing, labeled metrics, and streaming event sinks.

The package is dependency-free and driven entirely by the engine's
virtual clock, so telemetry never perturbs simulated time.  Core parts:

- :mod:`repro.obs.trace` — a nesting :class:`~repro.obs.trace.Tracer`
  that exports Chrome trace-event JSON (loadable in ``chrome://tracing``
  or Perfetto), including flow arrows (span links) between lanes.
- :mod:`repro.obs.metrics` — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` primitives with label sets, virtual-clock time-series
  sampling, Prometheus text exposition, and JSONL export.
- :mod:`repro.obs.sinks` — streaming :class:`~repro.obs.sinks.Sink`
  implementations (bounded ring buffer, JSONL file writer, null) for the
  engine's structured event stream.
- :mod:`repro.obs.telemetry` — the :class:`~repro.obs.telemetry.Telemetry`
  bundle the serving stack threads through, plus the ``repro trace`` /
  ``repro inspect`` toolchain (:mod:`repro.obs.runner`,
  :mod:`repro.obs.inspect`).

The cluster-scale observability plane builds on those:

- :mod:`repro.obs.journey` — per-request journeys with critical-path
  phase attribution (``repro journeys``).
- :mod:`repro.obs.timeseries` — fixed-cadence fleet health snapshots
  with JSONL/CSV export.
- :mod:`repro.obs.slo` — SRE-style multi-window error-budget burn-rate
  alerting over the attainment stream (``repro slo``).
- :mod:`repro.obs.cluster` — the tracer and metrics-registry subscribers
  of a cluster run (cluster/replica trace lanes, ``repro_cluster_*``
  instruments).

Journeys, fleet series, SLO trackers and the two :mod:`repro.obs.cluster`
subscribers are all :class:`~repro.cluster.observer.ClusterObserver`
subclasses: pass them as ``run_cluster(..., observers=[...])``.

Everything here measures simulated time.  The simulator's host wall-clock
cost is measured from outside the package by the repo benchmark in
``perfbench/`` (see ``perfbench/README.md``).
"""

from repro.obs.cluster import MetricsObserver, TracerObserver
from repro.obs.journey import (
    AttemptRecord,
    Journey,
    JourneyRecorder,
    read_journeys_jsonl,
    render_journeys,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SlidingWindowRatio,
    log_buckets,
)
from repro.obs.sinks import JsonlSink, NullSink, RingBufferSink, Sink
from repro.obs.slo import (
    BurnRateRule,
    SLOAlert,
    SLOTracker,
    TieredSLOTracker,
    default_burn_rules,
    render_slo_summary,
)
from repro.obs.telemetry import Telemetry
from repro.obs.timeseries import FleetSample, FleetSeries, read_fleet_jsonl
from repro.obs.trace import Tracer

__all__ = [
    "AttemptRecord",
    "BurnRateRule",
    "Counter",
    "FleetSample",
    "FleetSeries",
    "Gauge",
    "Histogram",
    "Journey",
    "JourneyRecorder",
    "JsonlSink",
    "MetricsObserver",
    "MetricsRegistry",
    "NullSink",
    "RingBufferSink",
    "SLOAlert",
    "SLOTracker",
    "Sink",
    "SlidingWindowRatio",
    "TieredSLOTracker",
    "Telemetry",
    "Tracer",
    "TracerObserver",
    "default_burn_rules",
    "log_buckets",
    "read_fleet_jsonl",
    "read_journeys_jsonl",
    "render_journeys",
    "render_slo_summary",
]
