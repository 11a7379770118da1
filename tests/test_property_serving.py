"""Property-based tests for the serving substrate (channels, pool, ILP)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ilp import belady_min_misses, evaluate_cache_schedule
from repro.moe.config import tiny_test_model
from repro.serving.hardware import HardwareConfig
from repro.serving.memory import TransferChannel
from repro.serving.pool import ExpertPool
from repro.types import ExpertId

E = ExpertId


class TestChannelProperties:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["schedule", "urgent"]),
                st.floats(0, 100),
                st.integers(1, 1000),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_transfers_never_overlap(self, ops):
        """The link is a serial resource: active intervals are disjoint."""
        channel = TransferChannel(bandwidth_bps=100.0)
        now = 0.0
        for i, (kind, dt, nbytes) in enumerate(ops):
            now += dt
            if kind == "schedule":
                channel.schedule(now, nbytes, E(0, i))
            else:
                channel.load_urgent(now, nbytes, E(0, i))
        tasks = sorted(channel.pending_tasks(-1.0), key=lambda t: t.start)
        for a, b in zip(tasks, tasks[1:]):
            assert a.end <= b.start + 1e-9

    @given(
        ops=st.lists(st.floats(0, 10), min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_tasks_never_start_before_issue(self, ops):
        channel = TransferChannel(bandwidth_bps=50.0)
        issued = []
        now = 0.0
        for i, dt in enumerate(ops):
            now += dt
            task = channel.schedule(now, 100, E(0, i))
            issued.append((now, task))
        for issue_time, task in issued:
            assert task.start >= issue_time - 1e-9
            assert task.end > task.start


class TestPoolProperties:
    @given(
        actions=st.lists(
            st.tuples(
                st.sampled_from(["prefetch", "ondemand", "evict"]),
                st.integers(0, 3),  # layer
                st.integers(0, 3),  # expert
                st.floats(0, 10),  # time delta
            ),
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_budget_never_exceeded(self, actions):
        config = tiny_test_model(num_layers=4, experts_per_layer=4)
        hardware = HardwareConfig(
            num_gpus=2, pcie_bandwidth_bps=1e6,
            framework_layer_overhead_seconds=0.0,
        )
        budget = 6 * config.expert_bytes
        pool = ExpertPool(config, hardware, cache_budget_bytes=budget)

        class AnyOracle:
            def eviction_score_matrix(self, now):
                return np.arange(16, dtype=np.float64)

        pool.set_eviction_oracle(AnyOracle())
        now = 0.0
        for kind, layer, expert, dt in actions:
            now += dt
            eid = E(layer, expert)
            if kind == "prefetch":
                pool.prefetch(eid, now)
            elif kind == "ondemand":
                now = max(now, pool.load_on_demand(eid, now))
            else:
                pool.evict(eid)
            assert pool.used_bytes() <= budget
            per_device = budget // 2
            for device in pool.devices:
                assert 0 <= device.used_bytes <= per_device
                assert (
                    device.used_bytes
                    == len(device.resident) * config.expert_bytes
                )


class TestBeladyProperties:
    @given(
        accesses=st.lists(st.integers(0, 7), min_size=1, max_size=60),
        capacity=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_belady_lower_bounds_online_policies(self, accesses, capacity):
        sequence = [[E(0, a)] for a in accesses]
        optimal = belady_min_misses(sequence, capacity)
        distinct = len(set(accesses))
        assert optimal >= distinct  # cold misses are unavoidable
        assert optimal <= evaluate_cache_schedule(sequence, capacity, "lru")
        assert optimal <= evaluate_cache_schedule(sequence, capacity, "lfu")

    @given(accesses=st.lists(st.integers(0, 5), min_size=1, max_size=40))
    def test_full_capacity_means_cold_misses_only(self, accesses):
        sequence = [[E(0, a)] for a in accesses]
        assert belady_min_misses(sequence, 6) == len(set(accesses))
