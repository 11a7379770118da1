"""Unit tests for the runtime invariant monitors.

Covers the three contracts the monitors promise: clean runs produce zero
violations, real breaches are recorded and surfaced, and attaching a
suite never changes a single byte of the run's report
(telemetry-neutrality).
"""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.experiments.common import make_engine, run_system
from repro.obs.sinks import RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.serving.events import Event, EventKind
from repro.serving.export import report_to_json
from repro.serving.faults import (
    DeviceFailure,
    FaultConfig,
    FaultSchedule,
    SLOConfig,
)
from repro.validate.monitors import (
    ClockMonitor,
    MonitorSuite,
    Violation,
    check_cluster_report,
    default_monitors,
)

from tests._cluster_testkit import arrival_trace, tiny_world


def _monitored(system="fmoe", **kwargs):
    world = tiny_world()
    suite = MonitorSuite()
    report = run_system(world, system, monitor=suite, **kwargs)
    admitted = len(kwargs.get("requests") or world.test_requests)
    suite.finish(report, admitted=admitted)
    return suite, report


class TestCleanRuns:
    @pytest.mark.parametrize(
        "system", ["fmoe", "moe-infinity", "deepspeed-inference", "oracle"]
    )
    def test_offline_run_has_zero_violations(self, system):
        suite, _ = _monitored(system)
        assert suite.ok, suite.summary()
        assert suite.total_violations == 0

    def test_faulted_run_has_zero_violations(self):
        world = tiny_world()
        # Losing a device shrinks the fleet, so give the survivors room
        # (three experts per GPU) for the failed-over residents.
        budget = 3 * world.config.hardware.num_gpus * (
            world.model_config.expert_bytes
        )
        suite, _ = _monitored(
            "fmoe",
            requests=arrival_trace(world, n=6, gap=0.3),
            respect_arrivals=True,
            cache_budget_bytes=budget,
            faults=FaultSchedule(
                FaultConfig(
                    seed=3,
                    transfer_failure_prob=0.1,
                    straggler_prob=0.2,
                    device_failures=(DeviceFailure(time=0.5, device=1),),
                )
            ),
            slo=SLOConfig(),
        )
        assert suite.ok, suite.summary()

    def test_shedding_run_conserves_requests(self):
        world = tiny_world()
        trace = arrival_trace(world, n=8, gap=0.0)
        suite, report = _monitored(
            "fmoe",
            requests=trace,
            respect_arrivals=True,
            slo=SLOConfig(queue_delay_budget_seconds=0.5),
        )
        assert suite.ok, suite.summary()
        assert len(report.requests) + report.shed_requests == len(trace)


class TestTelemetryNeutrality:
    def test_monitored_report_is_byte_identical(self):
        world = tiny_world()
        plain = run_system(world, "fmoe")
        suite = MonitorSuite()
        monitored = run_system(world, "fmoe", monitor=suite)
        assert report_to_json(monitored) == report_to_json(plain)
        assert suite.ok

    def test_existing_recorder_keeps_its_stream(self):
        world = tiny_world()
        plain = report_to_json(run_system(world, "fmoe"))
        solo = RingBufferSink(4096)
        run_system(world, "fmoe", observers=[solo])
        alone = Telemetry()
        run_system(world, "fmoe", observers=[alone])
        alone.finalize()

        def events(ring):
            return [e.to_dict() for e in ring.events]

        monitored = RingBufferSink(4096)
        run_system(
            world, "fmoe", observers=[monitored], monitor=MonitorSuite()
        )
        assert events(monitored) == events(solo)

        # Telemetry, a ring and the monitors on one engine, with the
        # monitors subscribed last and first: every subscriber sees
        # exactly what it would see alone, whatever the order.
        for monitors_first in (False, True):
            ring, telemetry = RingBufferSink(4096), Telemetry()
            suite = MonitorSuite()
            if monitors_first:
                report = run_system(
                    world,
                    "fmoe",
                    observers=[ring, telemetry],
                    mutate=suite.bind,
                )
            else:
                report = run_system(
                    world, "fmoe", observers=[telemetry, ring], monitor=suite
                )
            telemetry.finalize()
            suite.finish(report, admitted=len(world.test_requests))
            assert report_to_json(report) == plain
            assert events(ring) == events(solo)
            assert telemetry.tracer.to_chrome() == alone.tracer.to_chrome()
            assert (
                telemetry.metrics.to_prometheus()
                == alone.metrics.to_prometheus()
            )
            assert suite.ok, suite.summary()


class TestViolationPlumbing:
    def test_clock_monitor_flags_rewind(self):
        engine = make_engine(tiny_world(), "fmoe")
        suite = MonitorSuite(monitors=[ClockMonitor()])
        suite.bind(engine)
        suite.emit(Event(EventKind.ITERATION_START, time=1.0, iteration=0))
        suite.emit(Event(EventKind.ITERATION_END, time=0.5, iteration=0))
        assert not suite.ok
        assert suite.violations[0].monitor == "clock"
        with pytest.raises(ValidationError, match="clock"):
            suite.raise_if_violated("unit")

    def test_recording_caps_but_counts_everything(self):
        suite = MonitorSuite(monitors=[], max_recorded=3)
        for i in range(10):
            suite.record("unit", f"breach {i}", float(i))
        assert len(suite.violations) == 3
        assert suite.total_violations == 10
        assert "and 7 more" in suite.summary()

    def test_finish_is_idempotent(self):
        suite, report = _monitored("fmoe")
        before = suite.total_violations
        suite.finish(report, admitted=len(tiny_world().test_requests))
        assert suite.total_violations == before

    def test_default_monitors_are_fresh_instances(self):
        first, second = default_monitors(), default_monitors()
        assert {type(m) for m in first} == {type(m) for m in second}
        assert all(a is not b for a, b in zip(first, second))

    def test_violation_renders_with_time_and_monitor(self):
        text = str(Violation("budget", "over by 42 bytes", 1.5))
        assert "budget" in text and "over by 42 bytes" in text


class TestClusterChecks:
    def _report(self):
        from repro.cluster import ClusterSpec, run_cluster

        world = tiny_world()
        return run_cluster(
            world,
            "fmoe",
            ClusterSpec(replicas=2, router="round-robin"),
            requests=arrival_trace(world, n=6, gap=0.4),
        )

    def test_healthy_cluster_report_is_clean(self):
        assert check_cluster_report(self._report()) == []

    def test_tampered_routing_counter_is_flagged(self):
        report = self._report()
        report.routed += 1
        messages = [v.message for v in check_cluster_report(report)]
        assert any("routed" in m for m in messages)

    def test_tampered_aggregate_fold_is_flagged(self):
        report = self._report()
        report.aggregate.hits += 5
        messages = [v.message for v in check_cluster_report(report)]
        assert any("aggregate.hits" in m for m in messages)


class TestTenancyChecks:
    def _tenant_report(self):
        from repro.cluster import ClusterSpec, ResilienceConfig, run_cluster
        from repro.workloads.traffic import (
            PREMIUM_PRIORITY,
            TenantSpec,
            TrafficConfig,
            materialize_traffic,
        )

        world = tiny_world()
        trace = materialize_traffic(
            TrafficConfig(
                tenants=(
                    TenantSpec(
                        name="prem",
                        num_requests=6,
                        mean_interarrival_seconds=0.05,
                        burstiness_cv=1.0,
                        tier="premium",
                    ),
                    TenantSpec(
                        name="bulk",
                        num_requests=6,
                        mean_interarrival_seconds=0.05,
                        burstiness_cv=1.0,
                        tier="batch",
                    ),
                ),
                seed=0,
            )
        )
        return run_cluster(
            world,
            "fmoe",
            ClusterSpec(
                replicas=1,
                resilience=ResilienceConfig(
                    admission_rate=2.0,
                    admission_burst=1,
                    priority_bypass_level=PREMIUM_PRIORITY,
                ),
            ),
            requests=trace,
        )

    def test_healthy_tenancy_report_is_clean(self):
        report = self._tenant_report()
        assert report.tenancy is not None
        assert report.tenancy.priority_aware
        assert check_cluster_report(report) == []

    def test_tier_conservation_breach_is_flagged(self):
        report = self._tenant_report()
        report.tenancy.tiers["premium"].served += 1
        messages = [v.message for v in check_cluster_report(report)]
        assert any(
            "tier premium" in m and "offered" in m for m in messages
        )

    def test_tenant_fold_disagreement_is_flagged(self):
        report = self._tenant_report()
        tenant = report.tenancy.tenants["bulk"]
        tenant.served += 1
        tenant.offered += 1
        messages = [v.message for v in check_cluster_report(report)]
        assert any("disagree with tenant fold" in m for m in messages)

    def test_priority_inversion_is_flagged(self):
        report = self._tenant_report()
        tiers = report.tenancy.tiers
        tenants = report.tenancy.tenants
        assert tiers["batch"].shed > tiers["premium"].shed
        # Forge the inversion (swap the shed counts) while keeping every
        # conservation identity intact, so the ordering check fires alone.
        tiers["premium"].shed, tiers["batch"].shed = (
            tiers["batch"].shed,
            tiers["premium"].shed,
        )
        for tier_name, tenant_name in (
            ("premium", "prem"),
            ("batch", "bulk"),
        ):
            tier = tiers[tier_name]
            tier.served = tier.offered - tier.shed - tier.failed
            tenant = tenants[tenant_name]
            tenant.shed = tier.shed
            tenant.served = tier.served
            tenant.failed = tier.failed
        violations = check_cluster_report(report)
        messages = [v.message for v in violations]
        assert any("priority inversion" in m for m in messages)
        assert all("offered" not in m for m in messages)
