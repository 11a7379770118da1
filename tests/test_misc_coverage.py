"""Targeted coverage of smaller branches across the package."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.moe.config import tiny_test_model
from repro.serving.hardware import HardwareConfig
from repro.serving.pool import ExpertPool
from repro.types import ExpertId

E = ExpertId


class KeepNothingOracle:
    def eviction_priority(self, expert, now):
        return 1.0


class TestInsertBlocking:
    @pytest.fixture
    def pool(self):
        config = tiny_test_model(num_layers=4, experts_per_layer=4)
        pool = ExpertPool(
            config,
            HardwareConfig(num_gpus=2, pcie_bandwidth_bps=1e6),
            cache_budget_bytes=4 * config.expert_bytes,
        )
        pool.set_eviction_oracle(KeepNothingOracle())
        return pool

    def test_insert_makes_resident_immediately(self, pool):
        assert pool.insert_blocking(E(0, 0), now=5.0)
        assert pool.is_ready(E(0, 0), 5.0)

    def test_insert_existing_is_noop(self, pool):
        pool.insert_blocking(E(0, 0), 1.0)
        used = pool.used_bytes()
        assert pool.insert_blocking(E(0, 0), 2.0)
        assert pool.used_bytes() == used

    def test_insert_evicts_when_full(self, pool):
        # Device 0 holds even-flat experts; fill its 2-expert budget.
        pool.insert_blocking(E(0, 0), 0.0)
        pool.insert_blocking(E(0, 2), 0.0)
        assert pool.insert_blocking(E(1, 0), 1.0)
        assert pool.stats.evictions == 1

    def test_insert_fails_when_all_protected(self, pool):
        pool.insert_blocking(E(0, 0), 0.0)
        pool.insert_blocking(E(0, 2), 0.0)
        pool.protected = {E(0, 0), E(0, 2)}
        assert not pool.insert_blocking(E(1, 0), 1.0)


class TestOverviewBranches:
    def test_overview_without_no_offload(self):
        from repro.experiments.common import ExperimentConfig, build_world
        from repro.experiments.overview import tradeoff_points

        world = build_world(
            ExperimentConfig(num_requests=8, num_test_requests=1)
        )
        points = tradeoff_points(
            world.config, include_no_offload=False, world=world
        )
        assert all(p.system != "no-offload" for p in points)


class TestStoreViews:
    def test_get_map_is_live_view(self, rng):
        from repro.core.store import ExpertMapStore
        from repro.moe.gating import softmax_rows

        store = ExpertMapStore(4, 3, 4, 8, prefetch_distance=1)
        grid = softmax_rows(rng.standard_normal((3, 4)))
        store.add(rng.standard_normal(8), grid)
        view = store.get_map(0)
        assert view.shape == (3, 4)
        assert np.allclose(view, grid, atol=1e-6)
        with pytest.raises(ConfigError):
            store.get_map(1)


class TestMoEInfinityColdPopularity:
    def test_no_popularity_no_initial_prefetch(
        self, tiny_config, small_hardware
    ):
        from repro.baselines import MoEInfinityPolicy
        from repro.moe.model import MoEModel
        from repro.serving.engine import ServingEngine
        from repro.serving.request import Request

        policy = MoEInfinityPolicy(prefetch_distance=2)
        engine = ServingEngine(
            MoEModel(tiny_config, seed=0),
            policy,
            cache_budget_bytes=12 * tiny_config.expert_bytes,
            hardware=small_hardware,
        )
        report = engine.run([Request(0, 0, 4, 2)])
        # Cold: no EAMs, no popularity — first request is all misses at
        # the gate, but completes.
        assert report.misses > 0


class TestTypes:
    def test_expert_id_is_hashable_tuple(self):
        assert E(1, 2) == (1, 2)
        assert len({E(1, 2), E(1, 2), E(2, 1)}) == 2
        assert str(E(3, 4)) == "E[3,4]"


class TestNoOffloadWithUnevenPlacement:
    def test_headroom_allows_full_preload(self):
        """Round-robin placement is uneven; no-offload must still fit."""
        from repro.experiments.common import ExperimentConfig, build_world, run_system

        world = build_world(
            ExperimentConfig(num_requests=8, num_test_requests=1)
        )
        report = run_system(world, "no-offload")
        assert report.hit_rate == 1.0
