"""Property-based tests on policy behavior through the engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    MixtralOffloadingPolicy,
    MoEInfinityPolicy,
    ProMoEPolicy,
)
from repro.baselines.base import BasePolicy
from repro.core.policy import FMoEPolicy
from repro.moe.config import tiny_test_model
from repro.moe.model import MoEModel
from repro.serving.engine import ServingEngine
from repro.serving.hardware import HardwareConfig
from repro.serving.request import Request


class PrefetchAuditor(BasePolicy):
    """Wraps a policy and records the target layer of every prefetch in
    the blocks it emits."""

    name = "auditor"

    def __init__(self, inner: BasePolicy):
        super().__init__()
        self.inner = inner
        self.start_targets = []
        self.layer_targets = []  # (current_layer, target_layer)

    def _targets(self, action):
        if action.prefetch_block is None:
            return []
        ids = action.prefetch_block[0]
        return [int(i) // self.config.experts_per_layer for i in ids]

    def attach(self, engine):
        super().attach(engine)
        self.inner.attach(engine)
        self.name = f"audited-{self.inner.name}"

    def warm(self, traces):
        self.inner.warm(traces)

    def on_request_start(self, request, embedding):
        self.inner.on_request_start(request, embedding)

    def on_request_end(self, request):
        self.inner.on_request_end(request)

    def on_iteration_start(self, ctx):
        action = self.inner.on_iteration_start(ctx)
        self.start_targets.extend(self._targets(action))
        return action

    def on_gate_output(self, ctx, layer):
        action = self.inner.on_gate_output(ctx, layer)
        self.layer_targets.extend(
            (layer, target) for target in self._targets(action)
        )
        return action

    def on_iteration_end(self, ctx):
        return self.inner.on_iteration_end(ctx)

    def on_expert_served(self, expert, hit, now):
        self.inner.on_expert_served(expert, hit, now)

    def eviction_score_matrix(self, now):
        return self.inner.eviction_score_matrix(now)


def policy_factory(name):
    return {
        "fmoe": lambda: FMoEPolicy(prefetch_distance=2),
        "mixtral-offloading": lambda: MixtralOffloadingPolicy(),
        "promoe": lambda: ProMoEPolicy(prefetch_distance=2),
        "moe-infinity": lambda: MoEInfinityPolicy(prefetch_distance=2),
    }[name]()


@pytest.mark.parametrize(
    "name", ["fmoe", "mixtral-offloading", "promoe", "moe-infinity"]
)
@given(seed=st.integers(0, 50), cluster=st.integers(0, 7))
@settings(max_examples=8, deadline=None)
def test_prefetch_targets_are_never_in_the_past(name, seed, cluster):
    """No policy may issue a prefetch for a layer at or behind the front."""
    config = tiny_test_model()
    model = MoEModel(config, seed=0)
    auditor = PrefetchAuditor(policy_factory(name))
    hardware = HardwareConfig(
        num_gpus=2, framework_layer_overhead_seconds=1e-3
    )
    engine = ServingEngine(
        model,
        auditor,
        cache_budget_bytes=12 * config.expert_bytes,
        hardware=hardware,
    )
    from repro.workloads.profiler import collect_history

    warm = collect_history(model, [Request(99, cluster, 6, 3, seed=seed)])
    auditor.warm(warm)
    engine.run([Request(0, cluster, 6, 3, seed=seed + 1)])

    layers = config.num_layers
    # Every audited policy prefetches on this workload, so an auditor
    # that stops seeing a policy's prefetches fails here.
    assert auditor.start_targets or auditor.layer_targets
    for target in auditor.start_targets:
        assert 0 <= target < layers
    for current, target in auditor.layer_targets:
        assert target > current, (current, target)
        assert target < layers


@given(seed=st.integers(0, 30))
@settings(max_examples=6, deadline=None)
def test_fmoe_eviction_priorities_always_finite(seed):
    config = tiny_test_model()
    model = MoEModel(config, seed=0)
    policy = FMoEPolicy(prefetch_distance=2)
    engine = ServingEngine(
        model,
        policy,
        cache_budget_bytes=8 * config.expert_bytes,
        hardware=HardwareConfig(num_gpus=2),
    )
    engine.run([Request(0, seed % 8, 4, 3, seed=seed)])
    scores = policy.eviction_score_matrix(engine.now)
    assert scores.shape == (config.num_layers * config.experts_per_layer,)
    assert np.isfinite(scores).all() and (scores > 0).all()
