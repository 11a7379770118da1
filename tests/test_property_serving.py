"""Property-based tests for the serving substrate (channels, pool, ILP)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.ilp import belady_min_misses, evaluate_cache_schedule
from repro.errors import CapacityError
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


class TestResidencyRecord:
    """The pool keeps one record per tracked expert: its task, which
    names the device that holds it.  Every mutation keeps that record,
    the devices' resident sets and their byte ledgers in agreement."""

    EXPERTS = [E(layer, j) for layer in range(4) for j in range(4)]

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        "preload",
                        "preload_fit",
                        "prefetch",
                        "insert_blocking",
                        "load_on_demand",
                        "evict",
                        "fail_device",
                        "failover",
                    ]
                ),
                st.integers(0, 15),  # flat expert id
                st.floats(0, 5),  # time delta
                st.integers(0, 3),  # device to fail
            ),
            max_size=40,
        )
    )
    # A re-homed expert whose placement moves again: expert 8's primary
    # GPU 0 fails, so it lands on GPU 3; once GPU 1 fails too, the
    # placement function would name GPU 2.  Only the record knows better.
    @example(
        ops=[
            ("fail_device", 0, 0.0, 0),
            ("prefetch", 8, 0.0, 0),
            ("fail_device", 0, 0.0, 1),
            ("evict", 8, 0.0, 0),
        ]
    )
    @settings(max_examples=100, deadline=None)
    def test_one_record_per_expert(self, ops):
        config = tiny_test_model(num_layers=4, experts_per_layer=4)
        hardware = HardwareConfig(
            num_gpus=4, pcie_bandwidth_bps=1e6,
            framework_layer_overhead_seconds=0.0,
        )
        pool = ExpertPool(
            config, hardware, cache_budget_bytes=8 * config.expert_bytes
        )

        class AnyOracle:
            def eviction_score_matrix(self, now):
                return np.arange(16, dtype=np.float64)

        pool.set_eviction_oracle(AnyOracle())
        now = 0.0
        lost: list[ExpertId] = []
        for kind, flat, dt, index in ops:
            now += dt
            expert = self.EXPERTS[flat]
            pair = [expert, self.EXPERTS[(flat + 5) % 16]]
            if kind == "preload":
                try:
                    pool.preload(pair)
                except CapacityError:
                    pass
            elif kind == "preload_fit":
                placed = pool.preload_fit(pair)
                assert all(pool.is_tracked(e) for e in placed)
            elif kind == "prefetch":
                pool.prefetch(expert, now)
            elif kind == "insert_blocking":
                pool.insert_blocking(expert, now)
            elif kind == "load_on_demand":
                now = max(now, pool.load_on_demand(expert, now))
            elif kind == "evict":
                pool.evict(expert)
            elif kind == "fail_device":
                # Never the last survivor: a pool with no GPU is gone.
                if len(pool.alive_devices()) > 1:
                    lost = pool.fail_device(index, now)
            else:
                pool.failover(lost, now)
            self._check(pool, config.expert_bytes, now)

    def _check(self, pool, expert_bytes, now):
        union: set[ExpertId] = set()
        for device in pool.devices:
            assert device.used_bytes == len(device.resident) * expert_bytes
            assert not union & device.resident
            union |= device.resident
            if device.failed:
                assert not device.resident
        for expert, task in pool._tasks.items():
            assert expert in pool.devices[task.device].resident
        assert pool.resident_experts() == union
        assert pool.ready_flags(self.EXPERTS, now) == [
            pool.is_ready(e, now) for e in self.EXPERTS
        ]


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
