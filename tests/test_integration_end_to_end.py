"""End-to-end integration tests across substrates and policies."""

import pytest

from repro.baselines import (
    DeepSpeedPolicy,
    MixtralOffloadingPolicy,
    MoEInfinityPolicy,
    OraclePolicy,
    ProMoEPolicy,
)
from repro.core.policy import FMoEPolicy
from repro.moe.model import MoEModel
from repro.serving.engine import ServingEngine
from repro.workloads.azure import AzureTraceConfig, make_azure_trace


ALL_POLICIES = [
    FMoEPolicy,
    DeepSpeedPolicy,
    MixtralOffloadingPolicy,
    MoEInfinityPolicy,
    ProMoEPolicy,
    OraclePolicy,
]


def run(tiny_config, policy, hardware, traces, requests, budget_experts=12):
    model = MoEModel(tiny_config, seed=0)
    engine = ServingEngine(
        model,
        policy,
        cache_budget_bytes=budget_experts * tiny_config.expert_bytes,
        hardware=hardware,
    )
    policy.warm(traces)
    return engine.run(requests)


class TestAllPoliciesComplete:
    @pytest.mark.parametrize(
        "policy_cls", ALL_POLICIES, ids=lambda c: c.__name__
    )
    def test_policy_serves_workload(
        self, policy_cls, tiny_config, tiny_world, small_hardware
    ):
        _, traces, test = tiny_world
        if policy_cls in (
            MixtralOffloadingPolicy,
            MoEInfinityPolicy,
            ProMoEPolicy,
            OraclePolicy,
        ):
            policy = policy_cls(prefetch_distance=2)
        else:
            policy = policy_cls()
        report = run(tiny_config, policy, small_hardware, traces, test[:3])
        assert len(report.requests) == 3
        assert report.activations > 0
        assert all(r.ttft > 0 for r in report.requests)
        assert all(r.finish_time > 0 for r in report.requests)
        # Virtual time is monotone across requests.
        finishes = [r.finish_time for r in report.requests]
        assert finishes == sorted(finishes)

    @pytest.mark.parametrize(
        "policy_cls", ALL_POLICIES, ids=lambda c: c.__name__
    )
    def test_deterministic_replays(
        self, policy_cls, tiny_config, tiny_world, small_hardware
    ):
        _, traces, test = tiny_world
        reports = []
        for _ in range(2):
            policy = (
                policy_cls(prefetch_distance=2)
                if policy_cls is not DeepSpeedPolicy
                and policy_cls is not FMoEPolicy
                else policy_cls()
            )
            reports.append(
                run(tiny_config, policy, small_hardware, traces, test[:2])
            )
        a, b = reports
        assert a.hit_rate == b.hit_rate
        assert a.mean_ttft() == pytest.approx(b.mean_ttft())
        assert a.mean_tpot() == pytest.approx(b.mean_tpot())


class TestBudgetMonotonicity:
    def test_more_budget_never_hurts_fmoe(
        self, tiny_config, tiny_world, small_hardware
    ):
        _, traces, test = tiny_world
        small = run(
            tiny_config, FMoEPolicy(prefetch_distance=2), small_hardware,
            traces, test[:4], budget_experts=6,
        )
        large = run(
            tiny_config, FMoEPolicy(prefetch_distance=2), small_hardware,
            traces, test[:4], budget_experts=24,
        )
        assert large.hit_rate >= small.hit_rate
        assert large.mean_tpot() <= small.mean_tpot() * 1.05


class TestOnlineTraceReplay:
    def test_cold_start_online_serving(
        self, tiny_config, tiny_profile, small_hardware
    ):
        trace = make_azure_trace(
            AzureTraceConfig(num_requests=6, mean_interarrival_seconds=0.5),
            tiny_profile,
            seed=0,
        )
        policy = FMoEPolicy(prefetch_distance=2)
        model = MoEModel(tiny_config, seed=0)
        engine = ServingEngine(
            model,
            policy,
            cache_budget_bytes=12 * tiny_config.expert_bytes,
            hardware=small_hardware,
        )
        report = engine.run(trace, respect_arrivals=True)
        assert len(report.requests) == 6
        # The store filled up online.
        assert len(policy.store) > 0
        # Arrival order respected: no request started before it arrived.
        for metrics, request in zip(report.requests, trace):
            assert metrics.start_time >= request.arrival_time - 1e-9
