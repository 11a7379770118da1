"""Unit tests for the cluster layer: spec, routers, autoscaler, metrics."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster import (
    Autoscaler,
    AutoscalerConfig,
    ClusterReport,
    ClusterSpec,
    ReplicaSummary,
    ScaleEvent,
    cluster_report_to_json,
    make_router,
    run_cluster,
)
from repro.cluster.driver import ClusterDriver
from repro.core.store import ExpertMapStore
from repro.errors import ConfigError
from repro.serving.metrics import RequestMetrics, ServingReport

from tests._cluster_testkit import arrival_trace, tiny_world


class _StubReplica:
    """The minimal routing-visible surface a router/autoscaler needs."""

    def __init__(self, replica_id, tokens=0, requests=0, store=None):
        self.replica_id = replica_id
        self._tokens = tokens
        self._requests = requests
        self._store = store
        self.draining = False
        self.retired = False

    def outstanding_tokens(self, now):
        return self._tokens

    def outstanding_requests(self, now):
        return self._requests

    def expert_map_store(self):
        return self._store


def _store_with(embeddings):
    store = ExpertMapStore(
        capacity=8,
        num_layers=2,
        num_experts=2,
        embedding_dim=3,
        prefetch_distance=1,
    )
    expert_map = np.zeros((2, 2))
    for emb in embeddings:
        store.add(np.asarray(emb, dtype=float), expert_map)
    return store


class TestClusterSpec:
    def test_defaults_valid(self):
        spec = ClusterSpec()
        assert spec.replicas == 2 and spec.router == "round-robin"

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ClusterSpec(replicas=0)
        with pytest.raises(ConfigError):
            ClusterSpec(router="random")
        with pytest.raises(ConfigError):
            ClusterSpec(fault_replica=-1)

    def test_autoscaler_validation(self):
        with pytest.raises(ConfigError):
            AutoscalerConfig(min_replicas=0)
        with pytest.raises(ConfigError):
            AutoscalerConfig(min_replicas=4, max_replicas=2)
        with pytest.raises(ConfigError):
            AutoscalerConfig(
                scale_up_queue_depth=1.0, scale_down_queue_depth=2.0
            )
        with pytest.raises(ConfigError):
            AutoscalerConfig(scale_up_p95_ttft_seconds=0.0)
        with pytest.raises(ConfigError):
            AutoscalerConfig(ttft_window=0)


class TestRouters:
    def test_make_router_rejects_unknown(self):
        with pytest.raises(ConfigError):
            make_router("power-of-two")

    def test_make_router_names(self):
        for name in (
            "round-robin",
            "least-outstanding",
            "semantic-affinity",
        ):
            assert make_router(name).name == name

    def test_round_robin_rotates(self):
        router = make_router("round-robin")
        fleet = [_StubReplica(i) for i in range(3)]
        picks = [
            router.select(None, None, fleet, 0.0).replica.replica_id
            for _ in range(6)
        ]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_picks_min_with_id_tiebreak(self):
        router = make_router("least-outstanding")
        fleet = [
            _StubReplica(0, tokens=5),
            _StubReplica(1, tokens=2),
            _StubReplica(2, tokens=2),
        ]
        decision = router.select(None, None, fleet, 0.0)
        assert decision.replica.replica_id == 1
        assert decision.reason == "least-outstanding"

    def test_affinity_routes_to_best_store_match(self):
        router = make_router("semantic-affinity")
        fleet = [
            _StubReplica(0, store=_store_with([[1.0, 0.0, 0.0]])),
            _StubReplica(1, store=_store_with([[0.0, 1.0, 0.0]])),
        ]
        decision = router.select(
            None, np.array([0.1, 0.9, 0.0]), fleet, 0.0
        )
        assert decision.replica.replica_id == 1
        assert decision.reason == "affinity"
        assert decision.score > 0.9

    def test_affinity_falls_back_when_stores_empty(self):
        router = make_router("semantic-affinity")
        fleet = [
            _StubReplica(0, tokens=3, store=None),
            _StubReplica(1, tokens=1, store=_store_with([])),
        ]
        decision = router.select(
            None, np.array([1.0, 0.0, 0.0]), fleet, 0.0
        )
        assert decision.reason == "fallback"
        assert decision.replica.replica_id == 1  # least outstanding

    def test_affinity_falls_back_below_min_score(self):
        router = make_router("semantic-affinity")
        fleet = [
            _StubReplica(0, tokens=9, store=_store_with([[-1.0, 0.0, 0.0]]))
        ]
        decision = router.select(
            None, np.array([1.0, 0.0, 0.0]), fleet, 0.0
        )
        assert decision.reason == "fallback"
        assert router.fallback_decisions == 1


class TestAutoscaler:
    def _scaler(self, **changes):
        base = dict(
            min_replicas=1,
            max_replicas=4,
            scale_up_queue_depth=2.0,
            scale_down_queue_depth=0.5,
            cooldown_seconds=5.0,
        )
        base.update(changes)
        return Autoscaler(AutoscalerConfig(**base))

    def test_scales_up_on_queue_depth(self):
        scaler = self._scaler()
        fleet = [_StubReplica(0, requests=5)]
        assert scaler.decide(0.0, fleet) == "up"

    def test_scales_down_when_idle(self):
        scaler = self._scaler()
        fleet = [_StubReplica(0, requests=0), _StubReplica(1, requests=0)]
        assert scaler.decide(0.0, fleet) == "down"

    def test_respects_min_and_max(self):
        scaler = self._scaler(max_replicas=1)
        assert scaler.decide(0.0, [_StubReplica(0, requests=9)]) is None
        scaler = self._scaler()
        assert scaler.decide(0.0, [_StubReplica(0, requests=0)]) is None

    def test_cooldown_blocks_consecutive_actions(self):
        scaler = self._scaler()
        busy = [_StubReplica(0, requests=5)]
        assert scaler.decide(0.0, busy) == "up"
        assert scaler.decide(1.0, busy) is None  # within cooldown
        assert scaler.decide(6.0, busy) == "up"

    def test_ttft_signal_triggers_scale_up(self):
        scaler = self._scaler(
            scale_up_p95_ttft_seconds=1.0, scale_up_queue_depth=100.0
        )
        fleet = [_StubReplica(0, requests=0), _StubReplica(1, requests=0)]
        for _ in range(8):
            scaler.observe_ttft(3.0)
        assert scaler.window_p95_ttft() == pytest.approx(3.0)
        assert scaler.decide(0.0, fleet) == "up"

    def test_drain_target_is_least_loaded(self):
        scaler = self._scaler()
        fleet = [
            _StubReplica(0, tokens=4),
            _StubReplica(1, tokens=1),
            _StubReplica(2, tokens=1),
        ]
        assert scaler.pick_drain_target(0.0, fleet).replica_id == 1


def _summary(replica_id, assigned):
    return ReplicaSummary(
        replica_id=replica_id,
        assigned=assigned,
        served=assigned,
        shed_requests=0,
        hit_rate=0.5,
        mean_ttft_seconds=1.0,
        p95_e2e_seconds=2.0,
        device_failures=0,
        draining=False,
        retired=False,
        spawned_at=0.0,
    )


class TestClusterReport:
    def test_load_imbalance_zero_when_even(self):
        report = ClusterReport(
            replicas=[_summary(0, 4), _summary(1, 4)]
        )
        assert report.load_imbalance() == 0.0

    def test_load_imbalance_positive_when_skewed(self):
        report = ClusterReport(
            replicas=[_summary(0, 8), _summary(1, 0)]
        )
        assert report.load_imbalance() == pytest.approx(1.0)

    def test_affinity_hit_rate(self):
        report = ClusterReport(routed=10, affinity_routed=4)
        assert report.affinity_hit_rate == pytest.approx(0.4)
        assert ClusterReport().affinity_hit_rate == 0.0

    def test_slo_attainment_counts_shed_as_missed(self):
        aggregate = ServingReport()
        for rid, e2e in enumerate((1.0, 3.0)):
            aggregate.requests.append(
                RequestMetrics(
                    request_id=rid,
                    arrival_time=0.0,
                    start_time=0.0,
                    ttft=0.5,
                    finish_time=e2e,
                )
            )
        aggregate.shed_requests = 2
        report = ClusterReport(aggregate=aggregate)
        # 1 of (2 served + 2 shed) finished within 2s.
        assert report.slo_attainment(2.0) == pytest.approx(0.25)

    def test_json_roundtrips(self):
        report = ClusterReport(
            system="fmoe",
            router="round-robin",
            replicas=[_summary(0, 2)],
            scale_events=[ScaleEvent(1.0, "up", 1, 0)],
            routed=2,
        )
        payload = json.loads(cluster_report_to_json(report))
        assert payload["router"] == "round-robin"
        assert payload["scale_events"][0]["action"] == "up"
        assert payload["replicas"][0]["assigned"] == 2


class TestDriverValidation:
    def test_shared_store_requires_fmoe(self):
        world = tiny_world()
        with pytest.raises(ConfigError):
            ClusterDriver(
                world,
                "moe-infinity",
                ClusterSpec(replicas=2, shared_store=True),
            )

    def test_shared_store_is_one_object(self):
        world = tiny_world()
        driver = ClusterDriver(
            world, "fmoe", ClusterSpec(replicas=3, shared_store=True)
        )
        stores = {
            id(r.expert_map_store()) for r in driver.replicas
        }
        assert len(stores) == 1

    def test_private_stores_are_distinct(self):
        world = tiny_world()
        driver = ClusterDriver(world, "fmoe", ClusterSpec(replicas=3))
        stores = {
            id(r.expert_map_store()) for r in driver.replicas
        }
        assert len(stores) == 3


class TestRunCluster:
    def test_counters_consistent(self):
        world = tiny_world()
        trace = arrival_trace(world, n=6)
        report = run_cluster(
            world,
            "fmoe",
            ClusterSpec(replicas=2, router="semantic-affinity"),
            requests=trace,
        )
        assert report.routed == 6
        assert report.routed == (
            len(report.aggregate.requests) + report.shed_requests
        )
        assert (
            report.affinity_routed + report.fallback_routed
            == report.routed
        )
        assert sum(r.assigned for r in report.replicas) == report.routed
        assert report.final_replicas == 2

    def test_storeless_system_always_falls_back(self):
        world = tiny_world()
        trace = arrival_trace(world, n=5)
        report = run_cluster(
            world,
            "deepspeed-inference",
            ClusterSpec(replicas=2, router="semantic-affinity"),
            requests=trace,
        )
        assert report.affinity_routed == 0
        assert report.fallback_routed == report.routed == 5
