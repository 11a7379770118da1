"""The ``repro trace`` backend: run one policy with full telemetry.

Builds a world, attaches a :class:`~repro.obs.telemetry.Telemetry` whose
event stream goes to a JSONL file, serves the workload, and writes the
whole observability bundle into one output directory:

- ``trace.json``    — Chrome trace-event JSON (chrome://tracing, Perfetto)
- ``metrics.prom``  — Prometheus text exposition of the final state
- ``metrics.jsonl`` — the sampled time series, one point per line
- ``events.jsonl``  — the raw structured event stream
- ``report.json``   — the :class:`~repro.serving.metrics.ServingReport`

``repro inspect`` (:mod:`repro.obs.inspect`) summarizes the directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.experiments.common import ExperimentConfig, build_world, run_system
from repro.obs.sinks import JsonlSink
from repro.obs.telemetry import Telemetry
from repro.serving.export import report_to_json
from repro.serving.faults import FaultSchedule, SLOConfig
from repro.serving.metrics import ServingReport


@dataclass
class TraceRunResult:
    """What one traced run produced."""

    report: ServingReport
    telemetry: Telemetry
    paths: dict[str, Path]


def run_traced(
    config: ExperimentConfig,
    system: str,
    out_dir: str | Path,
    online: bool = False,
    trace_requests: int = 16,
    rate_seconds: float = 2.0,
    sample_interval_seconds: float = 0.05,
    faults: FaultSchedule | None = None,
    slo: SLOConfig | None = None,
) -> TraceRunResult:
    """Serve one workload under ``system`` with telemetry attached.

    With ``online`` the workload is a generated Azure-style arrival trace
    replayed with queueing; otherwise the world's offline test requests
    are served back to back.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world = build_world(config)
    telemetry = Telemetry(
        sink=JsonlSink(out / "events.jsonl"),
        sample_interval_seconds=sample_interval_seconds,
    )
    requests = None
    if online:
        from repro.workloads.azure import AzureTraceConfig, make_azure_trace
        from repro.workloads.datasets import get_dataset_profile

        requests = make_azure_trace(
            AzureTraceConfig(
                num_requests=trace_requests,
                mean_interarrival_seconds=rate_seconds,
            ),
            get_dataset_profile(config.dataset),
            seed=config.seed + 10,
        )
    report = run_system(
        world,
        system,
        requests=requests,
        respect_arrivals=online,
        faults=faults,
        slo=slo,
        observers=[telemetry],
    )
    paths = telemetry.write_outputs(out)
    report_path = out / "report.json"
    report_to_json(report, report_path)
    paths["report"] = report_path
    return TraceRunResult(report=report, telemetry=telemetry, paths=paths)
