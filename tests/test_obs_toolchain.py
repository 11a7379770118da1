"""End-to-end tests of the trace toolchain: telemetry, CLI, trace files.

These cover the contract the ``repro trace`` / ``repro inspect`` pair must
keep: a traced run writes a valid Chrome trace plus Prometheus metrics,
``inspect`` summarizes it, and — critically — attaching telemetry never
changes the simulated latency results.
"""

import json
import math

import pytest

from repro.cli import main
from repro.core.policy import FMoEPolicy
from repro.experiments.common import ExperimentConfig, build_world, run_system
from repro.moe.model import MoEModel
from repro.obs.inspect import inspect_path, load_trace_events
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.serving.engine import ServingEngine
from repro.serving.events import EventKind
from tests.golden.corpus import (
    GOLDEN_CASES,
    GOLDEN_NUM_REQUESTS,
    GOLDEN_NUM_TEST_REQUESTS,
    GOLDEN_SEED,
)


def run_tiny(tiny_config, tiny_world, small_hardware, telemetry=None):
    _, traces, test = tiny_world
    policy = FMoEPolicy(prefetch_distance=2)
    engine = ServingEngine(
        MoEModel(tiny_config, seed=0),
        policy,
        cache_budget_bytes=8 * tiny_config.expert_bytes,
        hardware=small_hardware,
    )
    if telemetry is not None:
        engine.subscribe(telemetry)
    policy.warm(traces)
    report = engine.run(test[:2])
    if telemetry is not None:
        telemetry.finalize(engine.now)
    return report


class TestTelemetryNeutrality:
    def test_results_identical_with_and_without_telemetry(
        self, tiny_config, tiny_world, small_hardware
    ):
        """Telemetry observes through the virtual clock; it must never
        perturb what the simulation computes."""
        plain = run_tiny(tiny_config, tiny_world, small_hardware)
        telemetry = Telemetry(sink=RingBufferSink())
        traced = run_tiny(
            tiny_config, tiny_world, small_hardware, telemetry=telemetry
        )
        assert traced.iterations == plain.iterations
        assert traced.hits == plain.hits
        assert traced.misses == plain.misses
        assert [r.ttft for r in traced.requests] == [
            r.ttft for r in plain.requests
        ]
        assert [r.decode_latencies for r in traced.requests] == [
            r.decode_latencies for r in plain.requests
        ]


class TestTelemetryIntegration:
    @pytest.fixture
    def traced(self, tiny_config, tiny_world, small_hardware):
        telemetry = Telemetry(sink=RingBufferSink())
        report = run_tiny(
            tiny_config, tiny_world, small_hardware, telemetry=telemetry
        )
        return telemetry, report, tiny_config

    def test_span_counts_match_report(self, traced):
        telemetry, report, config = traced
        by_cat = {}
        for span in telemetry.tracer.spans:
            by_cat.setdefault(span.category, []).append(span)
        assert len(by_cat["iteration"]) == report.iterations
        assert len(by_cat["layer"]) == report.iterations * config.num_layers
        assert len(by_cat["expert"]) == report.hits + report.misses
        assert len(by_cat["request"]) == len(report.requests)

    def test_expert_spans_inside_iterations(self, traced):
        telemetry, _, _ = traced
        iterations = [
            s for s in telemetry.tracer.spans if s.category == "iteration"
        ]
        for span in telemetry.tracer.spans:
            if span.category != "expert":
                continue
            assert any(
                i.start <= span.start and span.end <= i.end
                for i in iterations
            )

    def test_event_counters_derived_centrally(self, traced):
        telemetry, report, _ = traced
        hits = sum(
            telemetry.metrics.counter("repro_expert_hits_total").value(
                layer=str(layer)
            )
            for layer in range(64)
        )
        assert hits == report.hits
        sink = telemetry.sink
        assert len(sink.of_kind(EventKind.ITERATION_START)) <= len(sink)

    def test_transfer_spans_flushed_at_finalize(self, traced):
        telemetry, _, _ = traced
        transfers = [
            s for s in telemetry.tracer.spans if s.category == "transfer"
        ]
        assert transfers, "tiny cache must force transfers"
        for span in transfers:
            assert span.end >= span.start
            assert span.args["bytes"] > 0

    def test_finalize_idempotent(self, traced):
        telemetry, _, _ = traced
        spans_before = len(telemetry.tracer.spans)
        telemetry.finalize(1e9)
        assert len(telemetry.tracer.spans) == spans_before


class TestServeSpanStalls:
    """Each serve span's stall matches the latency breakdown it charged."""

    @pytest.mark.parametrize(
        "case",
        [c for c in GOLDEN_CASES if c.system == "fmoe"],
        ids=lambda c: c.model,
    )
    def test_stall_seconds_sum_to_breakdown(self, case):
        world = build_world(
            ExperimentConfig(
                model_name=case.model,
                dataset=case.dataset,
                num_requests=GOLDEN_NUM_REQUESTS,
                num_test_requests=GOLDEN_NUM_TEST_REQUESTS,
                seed=GOLDEN_SEED,
            )
        )
        telemetry = Telemetry()
        report = run_system(world, case.system, observers=[telemetry])
        serves = [s for s in telemetry.tracer.spans if s.name == "serve"]
        assert any(s.args["stall_cause"] for s in serves), "no stalls"
        for cause in ("prefetch_stall", "ondemand_load"):
            stalled = sum(
                s.args["stall_seconds"]
                for s in serves
                if s.args["stall_cause"] == cause
            )
            charged = report.breakdown.sync.get(cause, 0.0)
            assert math.isclose(stalled, charged), (
                f"{case.model} {cause}: serve spans stall {stalled} s, "
                f"breakdown charges {charged} s"
            )


class TestTraceCli:
    @pytest.fixture(scope="class")
    def trace_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace_out")
        code = main(
            [
                "trace",
                "--policy", "fmoe",
                "--model", "mixtral",  # prefix must resolve to mixtral-8x7b
                "--requests", "10",
                "--test-requests", "1",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        return out

    def test_outputs_written(self, trace_dir):
        for name in (
            "trace.json",
            "metrics.prom",
            "metrics.jsonl",
            "events.jsonl",
            "report.json",
        ):
            assert (trace_dir / name).exists(), name

    def test_trace_is_valid_chrome_json(self, trace_dir):
        events = load_trace_events(trace_dir / "trace.json")
        assert events, "trace must not be empty"
        for event in events:
            assert event["ph"] in ("M", "X", "i")
            if event["ph"] in ("X", "i"):
                assert event["ts"] >= 0
            if event["ph"] == "X":
                assert event["dur"] >= 0
        stamps = [e["ts"] for e in events if e["ph"] in ("X", "i")]
        assert stamps == sorted(stamps)

    def test_metrics_prometheus_format(self, trace_dir):
        text = (trace_dir / "metrics.prom").read_text()
        assert "# TYPE repro_expert_hits_total counter" in text
        assert "# TYPE repro_iteration_seconds histogram" in text
        assert 'repro_iteration_seconds_bucket{le="+Inf"}' in text

    def test_metrics_series_jsonl(self, trace_dir):
        rows = [
            json.loads(line)
            for line in (trace_dir / "metrics.jsonl").read_text().splitlines()
        ]
        assert rows
        assert all(
            {"metric", "labels", "time", "value"} <= set(r) for r in rows
        )
        assert any(r["metric"] == "repro_cache_used_bytes" for r in rows)

    def test_report_counts_consistent_with_trace(self, trace_dir):
        report = json.loads((trace_dir / "report.json").read_text())
        events = load_trace_events(trace_dir / "trace.json")
        iterations = [
            e
            for e in events
            if e["ph"] == "X" and e.get("cat") == "iteration"
        ]
        assert len(iterations) == report["iterations"]
        assert report["events_dropped"] == 0

    def test_inspect_renders_sections(self, trace_dir, capsys):
        assert main(["inspect", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "slowest iterations" in out
        assert "stall attribution" in out
        assert "per-layer table" in out
        assert "per-device PCIe table" in out
        assert "compute+overheads" in out

    def test_inspect_accepts_trace_file(self, trace_dir):
        text = inspect_path(trace_dir / "trace.json", top=2)
        assert "stall attribution" in text

    def test_inspect_rejects_non_trace(self, tmp_path):
        bad = tmp_path / "not_a_trace.json"
        bad.write_text('{"foo": 1}')
        with pytest.raises(Exception, match="not a Chrome trace"):
            inspect_path(bad)

    def test_ambiguous_model_prefix_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "trace",
                    "--policy", "m",  # mixtral-offloading vs moe-infinity
                    "--out-dir", str(tmp_path),
                ]
            )
