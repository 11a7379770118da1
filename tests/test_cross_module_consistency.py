"""Cross-module consistency: clocks, breakdowns, and counters agree."""

import pytest

from repro.core.policy import FMoEPolicy
from repro.moe.model import MoEModel
from repro.serving.engine import ServingEngine


@pytest.fixture
def run(tiny_config, tiny_world, small_hardware):
    _, traces, test = tiny_world
    policy = FMoEPolicy(prefetch_distance=2)
    engine = ServingEngine(
        MoEModel(tiny_config, seed=0),
        policy,
        cache_budget_bytes=12 * tiny_config.expert_bytes,
        hardware=small_hardware,
    )
    policy.warm(traces)
    report = engine.run(test[:4])
    return engine, report, policy


class TestClockConsistency:
    def test_engine_clock_matches_last_finish(self, run):
        engine, report, _ = run
        assert engine.now == pytest.approx(
            max(m.finish_time for m in report.requests)
        )

    def test_sync_breakdown_bounded_by_wall_time(self, run):
        engine, report, _ = run
        # Critical-path components can never exceed total virtual time.
        assert report.breakdown.total_sync() <= engine.now + 1e-9

    def test_request_intervals_are_disjoint_in_order(self, run):
        _, report, _ = run
        ordered = sorted(report.requests, key=lambda m: m.start_time)
        for earlier, later in zip(ordered, ordered[1:]):
            # Sequential offline serving: no overlap between requests.
            assert later.start_time >= earlier.finish_time - 1e-9


class TestCounterConsistency:
    def test_pool_stats_vs_report(self, run):
        engine, report, _ = run
        stats = engine.pool.stats
        # Every on-demand load corresponds to a miss (the converse is not
        # true: in-flight stalls are misses without loads).
        assert stats.ondemand_loads <= report.misses
        assert (
            stats.ondemand_loads + report.prefetch_stall_misses
            <= report.misses + stats.ondemand_loads
        )

    def test_layer_counters_sum_to_totals(self, run):
        _, report, _ = run
        assert sum(report.layer_hits.values()) == report.hits
        assert sum(report.layer_misses.values()) == report.misses

    def test_store_growth_matches_iterations(self, run):
        _, report, policy = run
        # Online updates add one map per request per iteration (batch 1)
        # on top of the warmed history, bounded by capacity.
        warm_maps = policy.store.total_added - report.iterations
        assert warm_maps > 0
        assert len(policy.store) == min(
            policy.store.capacity, policy.store.total_added
        )

    def test_channel_bytes_match_transfer_counts(self, run):
        engine, _, _ = run
        config = engine.config
        total_bytes = sum(
            d.channel.bytes_transferred for d in engine.pool.devices
        )
        total_copies = (
            engine.pool.stats.prefetch_issued
            + engine.pool.stats.ondemand_loads
            - engine.pool.stats.prefetch_cancelled
        )
        assert total_bytes == total_copies * config.expert_bytes


class TestBreakdownComposition:
    def test_overheads_present_only_when_configured(
        self, tiny_config, tiny_world, small_hardware
    ):
        from repro.core.overheads import OverheadModel

        _, traces, test = tiny_world
        policy = FMoEPolicy(
            prefetch_distance=2,
            overheads=OverheadModel(
                context_collect_seconds=0.0,
                map_match_base_seconds=0.0,
                map_match_per_record_seconds=0.0,
                map_update_seconds=0.0,
            ),
        )
        engine = ServingEngine(
            MoEModel(tiny_config, seed=0),
            policy,
            cache_budget_bytes=12 * tiny_config.expert_bytes,
            hardware=small_hardware,
        )
        policy.warm(traces)
        report = engine.run(test[:2])
        assert report.breakdown.sync.get("context_collect", 0.0) == 0.0
        assert report.breakdown.asynchronous.get("map_match", 0.0) == 0.0
