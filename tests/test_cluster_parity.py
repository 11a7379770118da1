"""Parity contracts of the cluster layer.

Three guarantees anchor the subsystem:

- a 1-replica round-robin cluster is *the same machine* as a bare engine
  run — the aggregate report is byte-identical JSON, proving the cluster
  path introduces zero behavioral drift;
- a fleet of all-default :class:`ReplicaProfile` replicas serves exactly
  like an unprofiled cluster: same aggregate bytes, same full report
  apart from the ``fleet`` audit section; and
- cluster cells are pure functions of their spec, so a ``jobs=4`` fan-out
  reproduces ``jobs=1`` byte for byte — heterogeneous placement cells
  included.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster import (
    ClusterSpec,
    ReplicaProfile,
    cluster_report_to_json,
    run_cluster,
)
from repro.errors import ConfigError
from repro.experiments.common import ExperimentConfig, run_system
from repro.experiments.runner import SimCell, process_cache, run_cells
from repro.serving.export import report_to_json
from repro.workloads.azure import AzureTraceConfig, make_azure_trace
from repro.workloads.datasets import get_dataset_profile

from tests._cluster_testkit import arrival_trace, fleet_spec, tiny_world

SMALL = ExperimentConfig(num_requests=8, num_test_requests=2)
GOLDEN = Path(__file__).resolve().parent / "golden"


class TestSingleReplicaParity:
    def test_matches_bare_engine_byte_for_byte(self):
        world = tiny_world()
        trace = arrival_trace(world, n=6)
        bare = run_system(
            world, "fmoe", requests=trace, respect_arrivals=True
        )
        cluster = run_cluster(
            world,
            "fmoe",
            ClusterSpec(replicas=1, router="round-robin"),
            requests=trace,
        )
        assert report_to_json(cluster.aggregate) == report_to_json(bare)

    def test_parity_holds_for_baseline_system(self):
        world = tiny_world()
        trace = arrival_trace(world, n=5)
        bare = run_system(
            world, "moe-infinity", requests=trace, respect_arrivals=True
        )
        cluster = run_cluster(
            world,
            "moe-infinity",
            ClusterSpec(replicas=1, router="least-outstanding"),
            requests=trace,
        )
        assert report_to_json(cluster.aggregate) == report_to_json(bare)

    def test_parity_holds_on_offline_test_set(self):
        """The world's own test split (all arrivals at t=0) matches too.

        Cluster routing is an online decision, so the reference run also
        respects arrivals — with every arrival at 0 that only changes
        which clock latency is measured from, not what is served.
        """
        world = tiny_world()
        bare = run_system(world, "fmoe", respect_arrivals=True)
        cluster = run_cluster(
            world, "fmoe", ClusterSpec(replicas=1, router="round-robin")
        )
        assert report_to_json(cluster.aggregate) == report_to_json(bare)


class TestHomogeneousFleetParity:
    """All-default profiles must reproduce the unprofiled cluster exactly."""

    def test_default_profiles_match_legacy_bytes(self):
        world = tiny_world()
        trace = arrival_trace(world, n=8)
        legacy = run_cluster(
            world,
            "fmoe",
            ClusterSpec(replicas=2, router="least-outstanding"),
            requests=trace,
        )
        fleet = run_cluster(
            world,
            "fmoe",
            ClusterSpec(
                replicas=2,
                router="least-outstanding",
                profiles=(ReplicaProfile(), ReplicaProfile()),
            ),
            requests=trace,
        )
        # The served results are byte-identical; the fleet run only adds
        # the conditional ``fleet`` audit section on top.
        assert report_to_json(fleet.aggregate) == report_to_json(
            legacy.aggregate
        )
        legacy_payload = json.loads(cluster_report_to_json(legacy))
        fleet_payload = json.loads(cluster_report_to_json(fleet))
        assert "fleet" not in legacy_payload
        fleet_section = fleet_payload.pop("fleet")
        assert fleet_payload == legacy_payload
        assert fleet_section["placement"] is None
        assert [r["profile"] for r in fleet_section["profiles"]] == [
            "baseline",
            "baseline",
        ]

    def test_budget_floor_only_applies_to_scaled_budgets(self):
        """A too-small budget is an error unless a profile scaled it."""
        world = tiny_world()
        trace = arrival_trace(world, n=2)
        for profiles in (None, (ReplicaProfile(),)):
            with pytest.raises(ConfigError):
                run_cluster(
                    world,
                    "fmoe",
                    ClusterSpec(replicas=1, profiles=profiles),
                    requests=trace,
                    cache_budget_bytes=1,
                )
        # A VRAM-scaled replica keeps at least one expert per GPU.
        one_per_gpu = (
            world.config.hardware.num_gpus
            * world.model_config.expert_bytes
        )
        report = run_cluster(
            world,
            "fmoe",
            ClusterSpec(
                replicas=1,
                profiles=(ReplicaProfile(name="half", vram_scale=0.5),),
            ),
            requests=trace,
            cache_budget_bytes=one_per_gpu,
        )
        assert report.routed == 2

    def test_heterogeneous_fleet_matches_golden(self):
        """The pinned 2-replica heterogeneous placement run, byte for byte.

        Regenerate after an intentional behavior change by running this
        module's ``_hetero_fleet_report()`` and rewriting the JSON file,
        then review the diff before committing it.
        """
        golden = (GOLDEN / "cluster_fleet_hetero.json").read_text()
        assert cluster_report_to_json(_hetero_fleet_report()) == golden


def _hetero_fleet_report():
    """The canonical heterogeneous run the golden file pins."""
    world = tiny_world()
    return run_cluster(
        world,
        "fmoe",
        ClusterSpec(
            replicas=2,
            router="cost-aware",
            profiles=(
                ReplicaProfile(
                    name="fast",
                    pcie_scale=4.0,
                    flops_scale=1.5,
                    dollars_per_hour=3.2,
                ),
                ReplicaProfile(
                    name="slow-spot",
                    pcie_scale=0.5,
                    vram_scale=0.5,
                    dollars_per_hour=0.6,
                    spot=True,
                ),
            ),
            placement="cost-aware",
        ),
        requests=arrival_trace(world, n=8),
        validate=True,
    )


class TestClusterCellsParallel:
    def test_jobs4_matches_jobs1(self):
        """Cluster SimCells fan out with byte-identical results."""
        # Pre-warm the process cache so forked workers inherit the world.
        process_cache().get(SMALL)
        trace = tuple(
            make_azure_trace(
                AzureTraceConfig(
                    num_requests=4, mean_interarrival_seconds=1.0
                ),
                get_dataset_profile(SMALL.dataset),
                seed=SMALL.seed + 10,
            )
        )
        cells = [
            SimCell(
                config=SMALL,
                system="fmoe",
                requests=trace,
                cluster=ClusterSpec(
                    replicas=n, router=router, warm=False
                ),
            )
            for n in (1, 2)
            for router in ("round-robin", "semantic-affinity")
        ]
        sequential = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=4)
        assert [cluster_report_to_json(r) for r in sequential] == [
            cluster_report_to_json(r) for r in parallel
        ]

    def test_fleet_cells_jobs4_matches_jobs1(self):
        """Heterogeneous placement cells fan out byte-identically too."""
        process_cache().get(SMALL)
        trace = tuple(
            make_azure_trace(
                AzureTraceConfig(
                    num_requests=4, mean_interarrival_seconds=1.0
                ),
                get_dataset_profile(SMALL.dataset),
                seed=SMALL.seed + 10,
            )
        )
        cells = [
            SimCell(
                config=SMALL,
                system="fmoe",
                requests=trace,
                respect_arrivals=True,
                cluster=fleet_spec(
                    shape, router=router, placement=placement
                ),
            )
            for shape in ("mixed-bandwidth", "spot-heavy")
            for placement, router in (
                ("uniform", "least-outstanding"),
                ("cost-aware", "cost-aware"),
            )
        ]
        sequential = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=4)
        assert [cluster_report_to_json(r) for r in sequential] == [
            cluster_report_to_json(r) for r in parallel
        ]

    def test_fleet_rows_jobs4_matches_jobs1(self):
        """The ``repro fleet`` sweep itself is jobs-invariant."""
        from repro.experiments.fleet import default_fleet_shapes, fleet_rows

        cache = process_cache()
        cache.get(SMALL)
        shapes = (default_fleet_shapes()[1],)  # spot-heavy
        sequential = fleet_rows(
            shapes=shapes,
            config=SMALL,
            trace_requests=6,
            jobs=1,
            cache=cache,
        )
        parallel = fleet_rows(
            shapes=shapes,
            config=SMALL,
            trace_requests=6,
            jobs=4,
            cache=cache,
        )
        assert sequential == parallel

    def test_rerun_is_deterministic(self):
        world = tiny_world()
        trace = arrival_trace(world, n=6)
        spec = ClusterSpec(replicas=3, router="semantic-affinity")
        first = run_cluster(world, "fmoe", spec, requests=trace)
        second = run_cluster(world, "fmoe", spec, requests=trace)
        assert cluster_report_to_json(first) == cluster_report_to_json(
            second
        )
