"""Tests for continuous batching (iteration-boundary admission)."""

import pytest

from repro.core.policy import FMoEPolicy
from repro.errors import ConfigError
from repro.moe.model import MoEModel
from repro.serving.engine import ServingEngine
from repro.serving.request import Request


def make_engine(tiny_config, small_hardware, budget_experts=16):
    policy = FMoEPolicy(prefetch_distance=2)
    engine = ServingEngine(
        MoEModel(tiny_config, seed=0),
        policy,
        cache_budget_bytes=budget_experts * tiny_config.expert_bytes,
        hardware=small_hardware,
    )
    return engine, policy


class TestAdmission:
    def test_all_requests_complete(self, tiny_config, small_hardware):
        engine, _ = make_engine(tiny_config, small_hardware)
        requests = [
            Request(i, i % 3, 4 + i, 2 + i % 2, arrival_time=0.01 * i)
            for i in range(6)
        ]
        report = engine.run_continuous(requests, max_batch_size=3)
        assert sorted(r.request_id for r in report.requests) == list(range(6))
        for request in requests:
            metrics = next(
                m for m in report.requests if m.request_id == request.request_id
            )
            assert len(metrics.decode_latencies) == request.output_tokens - 1

    def test_batch_size_respected(self, tiny_config, small_hardware):
        from repro.serving.events import EventKind, EventRecorder

        engine, _ = make_engine(tiny_config, small_hardware)
        recorder = EventRecorder()
        engine.subscribe(recorder)
        requests = [
            Request(i, 0, 4, 3, arrival_time=0.0) for i in range(8)
        ]
        engine.run_continuous(requests, max_batch_size=2)
        sizes = [
            e.detail for e in recorder.of_kind(EventKind.ITERATION_START)
        ]
        assert max(sizes) <= 2

    def test_no_start_before_arrival(self, tiny_config, small_hardware):
        engine, _ = make_engine(tiny_config, small_hardware)
        requests = [
            Request(0, 0, 4, 3, arrival_time=0.0),
            Request(1, 0, 4, 3, arrival_time=50.0),
        ]
        report = engine.run_continuous(requests, max_batch_size=4)
        late = next(m for m in report.requests if m.request_id == 1)
        assert late.start_time >= 50.0
        # Latency measured from arrival.
        assert late.e2e_latency == pytest.approx(
            late.finish_time - 50.0
        )

    def test_validation(self, tiny_config, small_hardware):
        engine, _ = make_engine(tiny_config, small_hardware)
        with pytest.raises(ConfigError):
            engine.run_continuous([Request(0, 0, 4, 2)], max_batch_size=0)


class TestMixedStageIterations:
    def test_joiner_prefills_while_others_decode(
        self, tiny_config, small_hardware
    ):
        """A request arriving mid-generation joins without a batch barrier."""
        engine, _ = make_engine(tiny_config, small_hardware)
        requests = [
            Request(0, 0, 8, 8, arrival_time=0.0),
            Request(1, 1, 8, 2, arrival_time=0.001),
        ]
        report = engine.run_continuous(requests, max_batch_size=4)
        first = next(m for m in report.requests if m.request_id == 0)
        second = next(m for m in report.requests if m.request_id == 1)
        # The second request was admitted while the first was decoding:
        # its service started before the first finished.
        assert second.start_time < first.finish_time
        assert second.ttft > 0

    def test_continuous_improves_waiting_over_static_batches(
        self, tiny_config, small_hardware
    ):
        """A short request behind a long one benefits from joining early."""
        requests = [
            Request(0, 0, 4, 12, arrival_time=0.0),
            Request(1, 0, 4, 2, arrival_time=0.01),
        ]
        engine_static, _ = make_engine(tiny_config, small_hardware)
        static = engine_static.run(
            requests, batch_size=1, respect_arrivals=True
        )
        engine_cont, _ = make_engine(tiny_config, small_hardware)
        continuous = engine_cont.run_continuous(requests, max_batch_size=4)
        static_short = next(
            m for m in static.requests if m.request_id == 1
        )
        cont_short = next(
            m for m in continuous.requests if m.request_id == 1
        )
        assert cont_short.e2e_latency < static_short.e2e_latency

    def test_kv_tracker_balanced(self, tiny_config, small_hardware):
        engine, _ = make_engine(tiny_config, small_hardware)
        requests = [
            Request(i, 0, 6, 3, arrival_time=0.002 * i) for i in range(5)
        ]
        report = engine.run_continuous(requests, max_batch_size=3)
        assert engine.kv_tracker.current_bytes() == 0
        assert report.peak_kv_bytes > 0


class TestPolicyLifecycleHooks:
    def test_moe_infinity_flushes_on_request_end(
        self, tiny_config, small_hardware
    ):
        from repro.baselines import MoEInfinityPolicy

        policy = MoEInfinityPolicy(prefetch_distance=2)
        engine = ServingEngine(
            MoEModel(tiny_config, seed=0),
            policy,
            cache_budget_bytes=16 * tiny_config.expert_bytes,
            hardware=small_hardware,
        )
        requests = [
            Request(i, 0, 4, 2, arrival_time=0.001 * i) for i in range(3)
        ]
        engine.run_continuous(requests, max_batch_size=2)
        assert len(policy._eams) == 3
        assert policy._request_counts == {}
