"""Engine prefetch-application semantics: ordering, delays, accounting."""

import pytest

import numpy as np

from repro.baselines.base import BasePolicy
from repro.moe.model import MoEModel
from repro.serving.engine import PolicyAction, ServingEngine
from repro.serving.request import Request
from repro.types import ExpertId

E = ExpertId


def block(*entries):
    """A prefetch block of (expert, priority) entries in emission order
    (the tiny model's four experts per layer)."""
    width = 4
    return (
        np.array([e.layer * width + e.expert for e, _ in entries], np.int64),
        np.array([p for _, p in entries], np.float64),
    )


class OneShotPrefetcher(BasePolicy):
    """Issues one configurable action at iteration start, then nothing."""

    name = "one-shot"

    def __init__(self, action: PolicyAction):
        super().__init__()
        self._action = action
        self.fired = False

    def on_iteration_start(self, ctx):
        if self.fired:
            return PolicyAction()
        self.fired = True
        return self._action


def run_one(tiny_config, small_hardware, action):
    model = MoEModel(tiny_config, seed=0)
    policy = OneShotPrefetcher(action)
    engine = ServingEngine(
        model,
        policy,
        # Budget covers every expert: no eviction interferes with the
        # arrival-time assertions below.
        cache_budget_bytes=2 * tiny_config.total_expert_bytes,
        hardware=small_hardware,
    )
    report = engine.run([Request(0, 0, 4, 2)])
    return engine, report


class TestPriorityOrdering:
    def test_higher_priority_transfers_first(
        self, tiny_config, small_hardware
    ):
        # Two experts on the same device (same flat parity): the higher
        # priority one must get the earlier channel slot.
        low = E(1, 0)
        high = E(1, 2)
        action = PolicyAction(prefetch_block=block((low, 0.1), (high, 9.0)))
        engine, _ = run_one(tiny_config, small_hardware, action)
        pool = engine.pool
        assert pool.device_of(low).index == pool.device_of(high).index
        # Arrival times may have shifted due to later misses, but the
        # high-priority expert must never arrive after the low one.
        assert pool.arrival_time(high) <= pool.arrival_time(low)


class TestOverheadAccounting:
    def test_async_overheads_delay_but_do_not_block(
        self, tiny_config, small_hardware
    ):
        expert = E(3, 1)
        no_delay = PolicyAction(prefetch_block=block((expert, 0.0)))
        delayed = PolicyAction(
            prefetch_block=block((expert, 0.0)),
            async_overheads={"map_match": 0.25},
        )
        engine_a, report_a = run_one(tiny_config, small_hardware, no_delay)
        engine_b, report_b = run_one(tiny_config, small_hardware, delayed)
        # Same critical-path behavior for the first layers...
        assert report_b.breakdown.asynchronous["map_match"] == pytest.approx(
            0.25
        )
        # ...but the transfer was issued later.
        gap = engine_b.pool.arrival_time(expert) - engine_a.pool.arrival_time(
            expert
        )
        assert gap == pytest.approx(0.25, rel=0.05)

    def test_sync_overheads_block(self, tiny_config, small_hardware):
        slow = PolicyAction(sync_overheads={"predict": 0.5})
        _, report_slow = run_one(tiny_config, small_hardware, slow)
        _, report_fast = run_one(
            tiny_config, small_hardware, PolicyAction()
        )
        assert (
            report_slow.requests[0].ttft
            >= report_fast.requests[0].ttft + 0.5 - 1e-9
        )

    def test_prefetch_transfer_counted_once(
        self, tiny_config, small_hardware
    ):
        expert = E(2, 1)
        action = PolicyAction(
            prefetch_block=block((expert, 0.0), (expert, 0.0))  # duplicate
        )
        engine, report = run_one(tiny_config, small_hardware, action)
        load = small_hardware.expert_load_seconds(tiny_config)
        assert report.breakdown.asynchronous[
            "prefetch_transfer"
        ] == pytest.approx(load)
        assert engine.pool.stats.prefetch_issued == 1
