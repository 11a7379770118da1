"""Engine invariants under randomized workloads and harsh conditions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import FMoEPolicy
from repro.moe.config import tiny_test_model
from repro.moe.model import MoEModel
from repro.serving.engine import ServingEngine
from repro.serving.hardware import HardwareConfig
from repro.serving.request import Request


def build_engine(budget_experts=12, bandwidth=1e9, num_gpus=2):
    config = tiny_test_model()
    model = MoEModel(config, seed=0)
    policy = FMoEPolicy(prefetch_distance=2)
    hardware = HardwareConfig(
        num_gpus=num_gpus,
        pcie_bandwidth_bps=bandwidth,
        framework_layer_overhead_seconds=1e-3,
    )
    engine = ServingEngine(
        model,
        policy,
        cache_budget_bytes=budget_experts * config.expert_bytes,
        hardware=hardware,
    )
    return engine, config


@st.composite
def workloads(draw):
    n = draw(st.integers(1, 4))
    return [
        Request(
            request_id=i,
            cluster=draw(st.integers(0, 7)),
            input_tokens=draw(st.integers(1, 24)),
            output_tokens=draw(st.integers(1, 5)),
            seed=draw(st.integers(0, 1000)),
        )
        for i in range(n)
    ]


class TestRandomizedWorkloads:
    @given(requests=workloads(), batch_size=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_report_invariants(self, requests, batch_size):
        engine, config = build_engine()
        report = engine.run(requests, batch_size=batch_size)
        assert len(report.requests) == len(requests)
        assert report.hits + report.misses == report.activations
        total_iterations = 0
        for request, metrics in zip(
            sorted(requests, key=lambda r: r.request_id),
            sorted(report.requests, key=lambda m: m.request_id),
        ):
            assert metrics.ttft > 0
            assert len(metrics.decode_latencies) == request.output_tokens - 1
            assert all(d > 0 for d in metrics.decode_latencies)
            assert metrics.finish_time >= metrics.ttft + metrics.arrival_time - 1e-9
            total_iterations += request.total_iterations
        # Batch execution merges iterations: report counts engine loops.
        assert report.iterations <= total_iterations
        # Every decode layer activates at least top-K distinct experts.
        min_activations = (
            report.iterations * config.num_layers
        )  # union ≥ 1 expert... at least K for single requests
        assert report.activations >= min_activations

    @given(requests=workloads())
    @settings(max_examples=10, deadline=None)
    def test_clock_monotone_across_runs(self, requests):
        engine, _ = build_engine()
        t0 = engine.now
        engine.run(requests[:1])
        t1 = engine.now
        engine.run(requests)
        assert engine.now >= t1 >= t0


class TestHarshConditions:
    def test_starved_link_still_completes(self):
        """A link 1000x slower only slows things down, never wedges."""
        engine, _ = build_engine(bandwidth=1e6)
        report = engine.run([Request(0, 0, 4, 2)])
        assert len(report.requests) == 1
        assert report.mean_ttft() > 0

    def test_minimal_budget_still_completes(self):
        engine, config = build_engine(budget_experts=4)  # 2 per device
        report = engine.run([Request(0, 0, 8, 3)])
        assert len(report.requests) == 1
        # Almost everything misses at this budget.
        assert report.hit_rate < 0.6

    def test_single_gpu(self):
        engine, _ = build_engine(num_gpus=1, budget_experts=8)
        report = engine.run([Request(0, 0, 4, 2)])
        assert len(report.requests) == 1

    def test_prefill_only_batch(self):
        engine, _ = build_engine()
        report = engine.run(
            [Request(i, 0, 6, 1) for i in range(3)], batch_size=3
        )
        assert all(not r.decode_latencies for r in report.requests)
        assert report.iterations == 1

    def test_large_prompt(self):
        engine, _ = build_engine()
        report = engine.run([Request(0, 0, 2048, 2)])
        assert report.requests[0].ttft > 0
