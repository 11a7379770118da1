"""Tests for the discrete-event serving engine."""

import numpy as np
import pytest

from repro.baselines.base import BasePolicy
from repro.errors import ConfigError
from repro.serving.engine import IterationContext, PolicyAction, ServingEngine
from repro.serving.request import Request
from repro.types import ExpertId, Stage


class RecordingPolicy(BasePolicy):
    """No prefetching; records every hook invocation."""

    name = "recording"

    def __init__(self):
        super().__init__()
        self.request_starts = []
        self.iteration_starts = []
        self.gate_outputs = []
        self.served = []
        self.iteration_ends = 0

    def on_request_start(self, request, embedding):
        self.request_starts.append(request.request_id)

    def on_iteration_start(self, ctx):
        self.iteration_starts.append((ctx.stage, ctx.iteration_index))
        return PolicyAction()

    def on_gate_output(self, ctx, layer):
        self.gate_outputs.append((ctx.iteration_index, layer))
        return PolicyAction()

    def on_expert_served(self, expert, hit, now):
        self.served.append((expert, hit))

    def on_iteration_end(self, ctx):
        self.iteration_ends += 1
        return PolicyAction()

    def eviction_score_matrix(self, now):
        config = self.config
        return np.array(
            [
                float(hash(ExpertId(layer, j)) % 1000)
                for layer in range(config.num_layers)
                for j in range(config.experts_per_layer)
            ]
        )


class PrefetchCurrentPlusOne(BasePolicy):
    """Prefetches everything for the next layer, for timing assertions."""

    name = "next-layer"

    def on_gate_output(self, ctx, layer):
        target = layer + 1
        if target >= self.config.num_layers:
            return PolicyAction()
        width = self.config.experts_per_layer
        return PolicyAction(
            prefetch_block=(
                target * width + np.arange(width, dtype=np.int64),
                np.zeros(width),
            )
        )


def make_engine(model, policy, hardware, budget_experts=64):
    return ServingEngine(
        model,
        policy,
        cache_budget_bytes=budget_experts * model.config.expert_bytes,
        hardware=hardware,
    )


class TestHookSequence:
    def test_hooks_fire_in_order(self, tiny_model, small_hardware):
        policy = RecordingPolicy()
        engine = make_engine(tiny_model, policy, small_hardware)
        request = Request(7, cluster=0, input_tokens=6, output_tokens=3)
        report = engine.run([request])
        L = tiny_model.config.num_layers
        assert policy.request_starts == [7]
        assert policy.iteration_starts == [
            (Stage.PREFILL, 0),
            (Stage.DECODE, 1),
            (Stage.DECODE, 2),
        ]
        assert policy.iteration_ends == 3
        assert len(policy.gate_outputs) == 3 * L
        assert report.iterations == 3

    def test_all_activations_counted(self, tiny_model, small_hardware):
        policy = RecordingPolicy()
        engine = make_engine(tiny_model, policy, small_hardware)
        report = engine.run([Request(0, 0, 4, 2)])
        assert report.activations == len(policy.served)
        assert report.activations > 0

    def test_cold_cache_all_misses_first_iteration(
        self, tiny_model, small_hardware
    ):
        policy = RecordingPolicy()
        engine = make_engine(tiny_model, policy, small_hardware)
        report = engine.run([Request(0, 0, 4, 1)])
        # No prefetching and a cold cache: hit rate must be zero.
        assert report.hit_rate == 0.0
        assert report.misses == report.activations


class TestTimingModel:
    def test_clock_advances(self, tiny_model, small_hardware):
        engine = make_engine(tiny_model, RecordingPolicy(), small_hardware)
        engine.run([Request(0, 0, 4, 3)])
        assert engine.now > 0.0

    def test_ttft_positive_and_decode_recorded(
        self, tiny_model, small_hardware
    ):
        engine = make_engine(tiny_model, RecordingPolicy(), small_hardware)
        report = engine.run([Request(0, 0, 4, 4)])
        metrics = report.requests[0]
        assert metrics.ttft > 0
        assert len(metrics.decode_latencies) == 3
        assert metrics.finish_time >= metrics.ttft

    def test_offline_ttft_measured_from_service_start(
        self, tiny_model, small_hardware
    ):
        """Back-to-back requests must not inherit predecessors' time."""
        engine = make_engine(tiny_model, RecordingPolicy(), small_hardware)
        report = engine.run([Request(i, 0, 4, 2) for i in range(3)])
        ttfts = [r.ttft for r in report.requests]
        # All TTFTs are within the same order of magnitude (no accumulation).
        assert max(ttfts) < 5 * min(ttfts)

    def test_online_latency_includes_queueing(
        self, tiny_model, small_hardware
    ):
        requests = [
            Request(0, 0, 16, 4, arrival_time=0.0),
            Request(1, 0, 16, 4, arrival_time=0.001),
        ]
        engine = make_engine(tiny_model, RecordingPolicy(), small_hardware)
        report = engine.run(requests, respect_arrivals=True)
        first, second = report.requests
        # The second request queued behind the first.
        assert second.e2e_latency > first.e2e_latency

    def test_prefetched_experts_hit_next_layers(
        self, tiny_model, small_hardware
    ):
        policy = PrefetchCurrentPlusOne()
        engine = make_engine(tiny_model, policy, small_hardware)
        report = engine.run([Request(0, 0, 4, 6)])
        # Layer-0 misses are unavoidable; later layers should mostly hit
        # once transfers land and the cache warms.
        assert report.hit_rate > 0.3

    def test_sync_overhead_advances_clock(self, tiny_model, small_hardware):
        class SlowPolicy(RecordingPolicy):
            def on_gate_output(self, ctx, layer):
                return PolicyAction(sync_overheads={"predict": 0.5})

        fast_engine = make_engine(
            tiny_model, RecordingPolicy(), small_hardware
        )
        fast = fast_engine.run([Request(0, 0, 4, 2)])
        slow_engine = make_engine(tiny_model, SlowPolicy(), small_hardware)
        slow = slow_engine.run([Request(0, 0, 4, 2)])
        L = tiny_model.config.num_layers
        extra = slow.requests[0].ttft - fast.requests[0].ttft
        assert extra == pytest.approx(0.5 * L, rel=0.2)
        assert slow.breakdown.sync["predict"] == pytest.approx(0.5 * L * 2)

    def test_block_until_arrival_waits(self, tiny_model, small_hardware):
        class BlockingPolicy(PrefetchCurrentPlusOne):
            def on_gate_output(self, ctx, layer):
                action = super().on_gate_output(ctx, layer)
                action.block_until_arrival = True
                return action

        engine_async = make_engine(
            tiny_model, PrefetchCurrentPlusOne(), small_hardware
        )
        report_async = engine_async.run([Request(0, 0, 4, 3)])
        engine_block = make_engine(
            tiny_model, BlockingPolicy(), small_hardware
        )
        report_block = engine_block.run([Request(0, 0, 4, 3)])
        # Blocking buys hits with latency.
        assert report_block.hit_rate >= report_async.hit_rate
        assert (
            report_block.breakdown.sync.get("sync_prefetch_wait", 0.0) > 0.0
        )


class TestBatching:
    def test_batch_serves_all_requests(self, tiny_model, small_hardware):
        engine = make_engine(tiny_model, RecordingPolicy(), small_hardware)
        report = engine.run(
            [Request(i, i % 3, 4, 3) for i in range(4)], batch_size=2
        )
        assert len(report.requests) == 4

    def test_requests_finish_at_their_own_lengths(
        self, tiny_model, small_hardware
    ):
        engine = make_engine(tiny_model, RecordingPolicy(), small_hardware)
        report = engine.run(
            [Request(0, 0, 4, 2), Request(1, 0, 4, 6)], batch_size=2
        )
        short = next(r for r in report.requests if r.request_id == 0)
        long = next(r for r in report.requests if r.request_id == 1)
        assert len(short.decode_latencies) == 1
        assert len(long.decode_latencies) == 5
        assert long.finish_time > short.finish_time

    def test_invalid_batch_size(self, tiny_model, small_hardware):
        engine = make_engine(tiny_model, RecordingPolicy(), small_hardware)
        with pytest.raises(ConfigError):
            engine.run([Request(0, 0, 4, 2)], batch_size=0)


class TestIterationContext:
    def test_progressive_reveal_enforced(self, tiny_model):
        session = tiny_model.start_session(0, 4, 2, seed=0)
        routing = session.next_iteration()
        ctx = IterationContext(
            stage=routing.stage,
            iteration_index=0,
            requests=[Request(0, 0, 4, 2)],
            sessions=[session],
            routings=[routing],
            num_layers=tiny_model.config.num_layers,
            num_experts=tiny_model.config.experts_per_layer,
        )
        with pytest.raises(ConfigError, match="not yet revealed"):
            ctx.activated_at(0)
        ctx.reveal_layer(0)
        assert len(ctx.activated_at(0)) == 1
        assert np.allclose(ctx.observed[0, 0], routing.distributions[0])
        # Oracle access bypasses the reveal guard.
        assert len(ctx.oracle_activated_at(3)) == 1
