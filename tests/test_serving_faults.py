"""Fault injection and graceful degradation: schedule, retries, failover,
shedding, and deterministic replay."""

import pytest

from repro.baselines.base import BasePolicy
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    DeviceLostError,
    TransferError,
)
from repro.moe.config import tiny_test_model
from repro.moe.model import MoEModel
from repro.serving.engine import ServingEngine
from repro.serving.events import EventKind, EventRecorder
from repro.serving.export import report_to_json
from repro.serving.faults import (
    DeviceFailure,
    FaultConfig,
    FaultSchedule,
    RetryPolicy,
    SLOConfig,
)
from repro.serving.hardware import HardwareConfig
from repro.serving.memory import TransferChannel
from repro.serving.pool import ExpertPool
from repro.serving.request import Request
from repro.types import ExpertId

E = ExpertId


class FifoOracle:
    """Evicts lowest (layer, expert) first, deterministically."""

    def eviction_priority(self, expert, now):
        return -(expert.layer * 1000 + expert.expert)


class PlainPolicy(BasePolicy):
    """No prefetching; FIFO eviction."""

    name = "plain"

    def eviction_priority(self, expert, now):
        return -(expert.layer * 1000 + expert.expert)


class ScriptedFaults:
    """Test double: attempt ``i`` fails iff ``fails[i]`` is True."""

    is_zero = False

    def __init__(self, fails, multiplier=1.0):
        self.fails = list(fails)
        self.multiplier = multiplier

    def bandwidth_multiplier(self, device, time):
        return self.multiplier

    def transfer_fails(self, device, attempt_index):
        if attempt_index < len(self.fails):
            return self.fails[attempt_index]
        return False


@pytest.fixture
def config():
    return tiny_test_model(num_layers=4, experts_per_layer=4)


@pytest.fixture
def hardware():
    return HardwareConfig(
        num_gpus=2,
        gpu_memory_bytes=10**9,
        pcie_bandwidth_bps=1e6,
        framework_layer_overhead_seconds=0.0,
    )


# --------------------------------------------------------------------- #
# FaultConfig / FaultSchedule
# --------------------------------------------------------------------- #


class TestFaultSchedule:
    def test_zero_config_is_zero(self):
        assert FaultConfig().is_zero
        assert FaultSchedule(FaultConfig()).is_zero

    def test_any_knob_makes_it_nonzero(self):
        assert not FaultConfig(transfer_failure_prob=0.1).is_zero
        assert not FaultConfig(pcie_degradation_prob=0.1).is_zero
        assert not FaultConfig(straggler_prob=0.1).is_zero
        assert not FaultConfig(
            device_failures=(DeviceFailure(1.0, 0),)
        ).is_zero

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultConfig(transfer_failure_prob=1.5)
        with pytest.raises(ConfigError):
            FaultConfig(pcie_degradation_factor=0.0)
        with pytest.raises(ConfigError):
            FaultConfig(straggler_factor=0.5)
        with pytest.raises(ConfigError):
            FaultConfig(epoch_seconds=0.0)
        with pytest.raises(ConfigError):
            FaultConfig(pcie_degradation_seconds=11.0, epoch_seconds=10.0)
        with pytest.raises(ConfigError):
            DeviceFailure(time=-1.0, device=0)

    def test_queries_are_pure_and_seed_deterministic(self):
        cfg = FaultConfig(
            seed=7,
            pcie_degradation_prob=0.5,
            transfer_failure_prob=0.3,
            straggler_prob=0.5,
        )
        a, b = FaultSchedule(cfg), FaultSchedule(cfg)
        probes = [(d, t) for d in range(3) for t in (0.0, 3.3, 17.9, 120.0)]
        # Query b in reverse order: answers must not depend on order.
        forward = [a.bandwidth_multiplier(d, t) for d, t in probes]
        backward = [
            b.bandwidth_multiplier(d, t) for d, t in reversed(probes)
        ]
        assert forward == list(reversed(backward))
        assert [a.transfer_fails(0, i) for i in range(50)] == [
            b.transfer_fails(0, i) for i in range(50)
        ]
        assert [a.compute_multiplier(t) for _, t in probes] == [
            b.compute_multiplier(t) for _, t in probes
        ]

    def test_different_seeds_differ(self):
        def fails(seed):
            schedule = FaultSchedule(
                FaultConfig(seed=seed, transfer_failure_prob=0.5)
            )
            return [schedule.transfer_fails(0, i) for i in range(64)]

        assert fails(0) != fails(1)

    def test_full_epoch_window_always_degraded(self):
        cfg = FaultConfig(
            pcie_degradation_prob=1.0,
            pcie_degradation_seconds=10.0,
            epoch_seconds=10.0,
            pcie_degradation_factor=0.5,
        )
        schedule = FaultSchedule(cfg)
        for t in (0.0, 5.0, 9.99, 15.0):
            assert schedule.bandwidth_multiplier(0, t) == 0.5

    def test_straggler_factor_applied(self):
        cfg = FaultConfig(
            straggler_prob=1.0,
            straggler_seconds=10.0,
            epoch_seconds=10.0,
            straggler_factor=3.0,
        )
        assert FaultSchedule(cfg).compute_multiplier(4.0) == 3.0

    def test_failure_script_sorted(self):
        cfg = FaultConfig(
            device_failures=(DeviceFailure(5.0, 1), DeviceFailure(1.0, 0))
        )
        script = FaultSchedule(cfg).failure_script()
        assert [f.time for f in script] == [1.0, 5.0]


# --------------------------------------------------------------------- #
# Transfer retries and backoff
# --------------------------------------------------------------------- #


class TestChannelRetries:
    def test_retry_backoff_arithmetic(self):
        policy = RetryPolicy(
            max_attempts=3, backoff_seconds=0.5, backoff_multiplier=2.0
        )
        channel = TransferChannel(
            1e6,
            faults=ScriptedFaults([True, True, False]),
            retry_policy=policy,
        )
        # 1e6 bytes at 1e6 B/s = 1 s wire time per attempt.
        task = channel.schedule(0.0, 10**6, E(0, 0))
        # fail(1s) + backoff 0.5 + fail(1s) + backoff 1.0 + success(1s)
        assert task.end == pytest.approx(4.5)
        assert channel.retries == 2
        assert channel.failed_attempts == 2

    def test_exhausted_retries_raise(self):
        policy = RetryPolicy(max_attempts=2)
        channel = TransferChannel(
            1e6, faults=ScriptedFaults([True] * 10), retry_policy=policy
        )
        with pytest.raises(TransferError):
            channel.schedule(0.0, 10**6, E(0, 0))

    def test_degraded_bandwidth_stretches_copy(self):
        channel = TransferChannel(
            1e6, faults=ScriptedFaults([], multiplier=0.5)
        )
        task = channel.schedule(0.0, 10**6, E(0, 0))
        assert task.end == pytest.approx(2.0)

    def test_healthy_channel_unchanged(self):
        channel = TransferChannel(1e6)
        task = channel.schedule(0.0, 10**6, E(0, 0))
        assert task.end == 1.0
        assert channel.retries == 0

    def test_failed_channel_refuses(self):
        channel = TransferChannel(1e6)
        channel.fail(0.0)
        with pytest.raises(DeviceLostError):
            channel.schedule(0.0, 10**6, E(0, 0))
        with pytest.raises(DeviceLostError):
            channel.load_urgent(0.0, 10**6, E(0, 0))


# --------------------------------------------------------------------- #
# Device failure and failover in the pool
# --------------------------------------------------------------------- #


class TestDeviceFailover:
    def make_pool(self, config, hardware, budget_experts=8):
        pool = ExpertPool(
            config, hardware, budget_experts * config.expert_bytes
        )
        pool.set_eviction_oracle(FifoOracle())
        return pool

    def test_failover_conserves_byte_budget(self, config, hardware):
        pool = self.make_pool(config, hardware, budget_experts=6)
        pool.preload([E(0, 0), E(0, 1), E(0, 2), E(0, 3), E(1, 0), E(1, 1)])
        lost = pool.fail_device(0, now=1.0)
        assert lost, "device 0 held residents"
        pool.failover(lost, now=1.0)
        failed, survivor = pool.devices[0], pool.devices[1]
        assert failed.used_bytes == 0 and not failed.resident
        assert survivor.used_bytes <= survivor.budget_bytes
        assert survivor.used_bytes == len(survivor.resident) * config.expert_bytes
        assert pool.used_bytes() == len(pool.resident_experts()) * config.expert_bytes

    def test_failover_rehomes_onto_survivor(self, config, hardware):
        pool = self.make_pool(config, hardware)
        pool.preload([E(0, 0)])
        assert pool.device_of(E(0, 0)).index == 0
        lost = pool.fail_device(0, now=0.0)
        assert lost == [E(0, 0)]
        assert not pool.is_tracked(E(0, 0))
        pool.failover(lost, now=0.0)
        assert pool.is_tracked(E(0, 0))
        assert pool.device_of(E(0, 0)).index == 1
        assert pool.stats.failovers == 1

    def test_last_device_failure_raises(self, config, hardware):
        pool = self.make_pool(config, hardware)
        pool.fail_device(0, now=0.0)
        with pytest.raises(DeviceLostError):
            pool.fail_device(1, now=0.0)

    def test_double_failure_is_noop(self, config, hardware):
        pool = self.make_pool(config, hardware)
        pool.preload([E(0, 0)])
        pool.fail_device(0, now=0.0)
        assert pool.fail_device(0, now=0.0) == []
        assert pool.stats.devices_lost == 1


# --------------------------------------------------------------------- #
# Engine: identity, replay, degradation, shedding, SLO
# --------------------------------------------------------------------- #


def run_report(
    config,
    hardware,
    faults=None,
    slo=None,
    requests=None,
    respect_arrivals=False,
    recorder=None,
):
    """One tiny engine run, fresh model and policy each time."""
    engine = ServingEngine(
        MoEModel(config, seed=0),
        PlainPolicy(),
        cache_budget_bytes=8 * config.expert_bytes,
        hardware=hardware,
        faults=faults,
        slo=slo,
    )
    if recorder is not None:
        engine.subscribe(recorder)
    if requests is None:
        requests = [
            Request(request_id=i, cluster=0, input_tokens=8, output_tokens=4)
            for i in range(3)
        ]
    return engine.run(requests, respect_arrivals=respect_arrivals)


class TestEngineFaults:
    def test_zero_schedule_bit_identical(self, config, hardware):
        healthy = report_to_json(run_report(config, hardware))
        zeroed = report_to_json(
            run_report(config, hardware, faults=FaultSchedule(FaultConfig()))
        )
        assert healthy == zeroed

    def test_seeded_replay_identical(self, config, hardware):
        cfg = FaultConfig(
            seed=5,
            transfer_failure_prob=0.3,
            pcie_degradation_prob=0.6,
            straggler_prob=0.4,
            device_failures=(DeviceFailure(time=0.5, device=0),),
        )
        first = run_report(config, hardware, faults=FaultSchedule(cfg))
        second = run_report(config, hardware, faults=FaultSchedule(cfg))
        assert report_to_json(first) == report_to_json(second)
        assert first.fault_counters() == second.fault_counters()

    def test_always_failing_transfers_degrade_not_crash(
        self, config, hardware
    ):
        cfg = FaultConfig(transfer_failure_prob=1.0)
        recorder = EventRecorder()
        report = run_report(
            config, hardware, faults=FaultSchedule(cfg), recorder=recorder
        )
        assert len(report.requests) == 3  # every request completed
        assert report.degraded_tokens > 0
        assert report.retries > 0
        assert recorder.of_kind(EventKind.DEGRADED_SERVE)

    def test_substitution_disabled_raises(self, config, hardware):
        cfg = FaultConfig(transfer_failure_prob=1.0)
        with pytest.raises(TransferError):
            run_report(
                config,
                hardware,
                faults=FaultSchedule(cfg),
                slo=SLOConfig(substitute_on_failure=False),
            )

    def test_device_failure_recorded_and_recovered(self, config, hardware):
        cfg = FaultConfig(
            device_failures=(DeviceFailure(time=0.0, device=0),)
        )
        recorder = EventRecorder()
        report = run_report(
            config, hardware, faults=FaultSchedule(cfg), recorder=recorder
        )
        assert report.device_failures == 1
        assert recorder.of_kind(EventKind.DEVICE_FAILURE)
        assert len(report.requests) == 3

    def test_straggler_inflates_latency(self, config, hardware):
        healthy = run_report(config, hardware)
        cfg = FaultConfig(
            straggler_prob=1.0,
            straggler_seconds=10.0,
            epoch_seconds=10.0,
            straggler_factor=2.0,
        )
        slowed = run_report(config, hardware, faults=FaultSchedule(cfg))
        assert slowed.mean_ttft() > healthy.mean_ttft()

    def test_shed_accounting(self, config, hardware):
        requests = [
            Request(
                request_id=i,
                cluster=0,
                input_tokens=8,
                output_tokens=4,
                arrival_time=0.0,
            )
            for i in range(4)
        ]
        recorder = EventRecorder()
        report = run_report(
            config,
            hardware,
            slo=SLOConfig(queue_delay_budget_seconds=0.0),
            requests=requests,
            respect_arrivals=True,
            recorder=recorder,
        )
        # The first request starts on time; the rest queue behind it past
        # the zero budget and must be shed, never served.
        assert report.shed_requests == 3
        assert len(report.requests) == 1
        assert sorted(report.shed_request_ids) == [1, 2, 3]
        assert len(recorder.of_kind(EventKind.REQUEST_SHED)) == 3

    def test_strict_ttft_deadline_raises(self, config, hardware):
        with pytest.raises(DeadlineExceededError):
            run_report(
                config,
                hardware,
                slo=SLOConfig(ttft_deadline_seconds=1e-9, strict=True),
            )

    def test_lenient_ttft_deadline_counts(self, config, hardware):
        report = run_report(
            config, hardware, slo=SLOConfig(ttft_deadline_seconds=1e-9)
        )
        assert report.slo_violations == len(report.requests)


# --------------------------------------------------------------------- #
# Report plumbing
# --------------------------------------------------------------------- #


class _SubstituteAudit(EventRecorder):
    """Records events and, at each DEGRADED_SERVE, the substitute the
    rung-2 rule names: the nearest ready resident of the same layer."""

    def __init__(self, engine):
        super().__init__()
        self.engine = engine
        self.expected: list[float] = []

    def emit(self, event):
        super().emit(event)
        if event.kind is not EventKind.DEGRADED_SERVE:
            return
        pool = self.engine.pool
        ready = [
            e
            for e in pool.resident_experts()
            if e.layer == event.layer and pool.is_ready(e, event.time)
        ]
        nearest = min(
            ready,
            key=lambda e: (abs(e.expert - event.expert.expert), e.expert),
            default=None,
        )
        self.expected.append(-1.0 if nearest is None else float(nearest.expert))


class TestForcedSubstitution:
    def _run(self, config, hardware, subscribe: bool):
        from repro.core.policy import FMoEPolicy
        from repro.workloads.profiler import collect_history

        model = MoEModel(config, seed=0)
        policy = FMoEPolicy(prefetch_distance=1)
        engine = ServingEngine(
            model,
            policy,
            cache_budget_bytes=6 * config.expert_bytes,
            hardware=hardware,
        )
        policy.warm(
            collect_history(
                model,
                [Request(50 + i, i % 4, 8, 6, seed=i) for i in range(8)],
            )
        )
        engine.force_substitution = True
        audit = None
        if subscribe:
            audit = _SubstituteAudit(engine)
            engine.subscribe(audit)
        else:

            def no_search():
                raise AssertionError("substitute searched with no subscriber")

            engine.pool.resident_experts = no_search
        requests = [Request(i, i % 4, 8, 12, seed=100 + i) for i in range(4)]
        return engine.run(requests), audit

    def test_subscriber_changes_no_byte_and_names_substitutes(
        self, config
    ):
        """The substitute search runs only for subscribers: reports are
        byte-identical with and without one, and the subscribed run's
        DEGRADED_SERVE details name the nearest ready resident."""
        hardware = HardwareConfig(
            num_gpus=2,
            gpu_memory_bytes=10**9,
            pcie_bandwidth_bps=1e9,
            framework_layer_overhead_seconds=1e-3,
        )
        bare, _ = self._run(config, hardware, subscribe=False)
        watched, audit = self._run(config, hardware, subscribe=True)
        assert report_to_json(bare) == report_to_json(watched)
        details = [
            e.detail for e in audit.of_kind(EventKind.DEGRADED_SERVE)
        ]
        assert len(details) == bare.degraded_tokens > 0
        assert details == audit.expected
        assert any(d >= 0 for d in details)


class TestReportPlumbing:
    def test_absorb_merges_fault_counters(self, config, hardware):
        cfg = FaultConfig(transfer_failure_prob=1.0)
        a = run_report(config, hardware, faults=FaultSchedule(cfg))
        b = run_report(config, hardware, faults=FaultSchedule(cfg))
        merged_requests = len(a.requests) + len(b.requests)
        expected = a.degraded_tokens + b.degraded_tokens
        a.absorb(b)
        assert len(a.requests) == merged_requests
        assert a.degraded_tokens == expected
        assert a.retries > 0

    def test_export_includes_fault_counters(self, config, hardware):
        text = report_to_json(run_report(config, hardware))
        assert '"faults"' in text
        assert '"shed_requests": 0' in text


class TestHardwareValidation:
    def test_negative_overhead_rejected(self):
        with pytest.raises(ConfigError):
            HardwareConfig(framework_layer_overhead_seconds=-1e-3)

    def test_zero_overhead_allowed(self):
        HardwareConfig(framework_layer_overhead_seconds=0.0)

    def test_bad_memory_sizes_rejected(self):
        with pytest.raises(ConfigError):
            HardwareConfig(gpu_memory_bytes=0)
        with pytest.raises(ConfigError):
            HardwareConfig(cpu_memory_bytes=-1)


class TestClusterFaultValidation:
    """Regression suite for cluster-scope fault spec validation: bad
    durations, negative times, and overlapping windows must all be
    rejected at construction, never surface mid-simulation."""

    def _link(self, device=0, start=0.0, duration=1.0, severity=1.0):
        from repro.serving.faults import FaultSpec

        return FaultSpec(
            device=device,
            start=start,
            duration=duration,
            severity=severity,
            kind="link-degradation",
        )

    def test_fault_spec_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigError):
            self._link(duration=0.0)
        with pytest.raises(ConfigError):
            self._link(duration=-1.0)

    def test_fault_spec_rejects_negative_start_device_severity(self):
        with pytest.raises(ConfigError):
            self._link(start=-0.5)
        with pytest.raises(ConfigError):
            self._link(device=-1)
        with pytest.raises(ConfigError):
            self._link(severity=-1.0)

    def test_fault_spec_rejects_empty_kind(self):
        from repro.serving.faults import FaultSpec

        with pytest.raises(ConfigError):
            FaultSpec(
                device=0, start=0.0, duration=1.0, severity=1.0, kind=""
            )

    def test_crash_rejects_bad_time_replica_delay(self):
        from repro.serving.faults import ReplicaCrash

        with pytest.raises(ConfigError):
            ReplicaCrash(time=-1.0, replica=0)
        with pytest.raises(ConfigError):
            ReplicaCrash(time=0.0, replica=-1)
        with pytest.raises(ConfigError):
            ReplicaCrash(time=0.0, replica=0, restart_delay=0.0)
        with pytest.raises(ConfigError):
            ReplicaCrash(time=0.0, replica=0, restart_delay=-2.0)

    def test_zone_failure_rejects_bad_fields(self):
        from repro.serving.faults import ZoneFailure

        with pytest.raises(ConfigError):
            ZoneFailure(time=-1.0, zone=0)
        with pytest.raises(ConfigError):
            ZoneFailure(time=0.0, zone=-1)
        with pytest.raises(ConfigError):
            ZoneFailure(time=0.0, zone=0, restart_delay=0.0)

    def test_duplicate_crash_per_replica_rejected(self):
        from repro.serving.faults import ClusterFaultConfig, ReplicaCrash

        with pytest.raises(ConfigError):
            ClusterFaultConfig(
                crashes=(
                    ReplicaCrash(time=1.0, replica=0),
                    ReplicaCrash(time=2.0, replica=0),
                )
            )

    def test_zone_crash_overlap_rejected(self):
        from repro.serving.faults import (
            ClusterFaultConfig,
            ReplicaCrash,
            ZoneFailure,
        )

        # Replica 0 would crash twice: once directly, once via its zone.
        with pytest.raises(ConfigError):
            ClusterFaultConfig(
                zones=((0, 1),),
                zone_failures=(ZoneFailure(time=2.0, zone=0),),
                crashes=(ReplicaCrash(time=1.0, replica=0),),
            )

    def test_overlapping_zone_membership_rejected(self):
        from repro.serving.faults import ClusterFaultConfig

        with pytest.raises(ConfigError):
            ClusterFaultConfig(zones=((0, 1), (1, 2)))

    def test_zone_failure_out_of_range_rejected(self):
        from repro.serving.faults import ClusterFaultConfig, ZoneFailure

        with pytest.raises(ConfigError):
            ClusterFaultConfig(
                zones=((0,),),
                zone_failures=(ZoneFailure(time=1.0, zone=3),),
            )

    def test_overlapping_link_windows_same_device_rejected(self):
        from repro.serving.faults import ClusterFaultConfig

        with pytest.raises(ConfigError):
            ClusterFaultConfig(
                link_faults=(
                    self._link(device=0, start=0.0, duration=5.0),
                    self._link(device=0, start=4.0, duration=5.0),
                )
            )

    def test_link_windows_on_distinct_devices_may_overlap(self):
        from repro.serving.faults import ClusterFaultConfig

        config = ClusterFaultConfig(
            link_faults=(
                self._link(device=0, start=0.0, duration=5.0),
                self._link(device=1, start=0.0, duration=5.0),
            )
        )
        assert config.link_delay(0, 1.0) > 0.0
        assert config.link_delay(2, 1.0) == 0.0

    def test_expand_crashes_sorted_and_zone_expanded(self):
        from repro.serving.faults import ClusterFaultConfig, ZoneFailure

        config = ClusterFaultConfig(
            zones=((1, 2),),
            zone_failures=(
                ZoneFailure(time=3.0, zone=0, restart_delay=2.0),
            ),
        )
        crashes = config.expand_crashes()
        assert [c.replica for c in crashes] == [1, 2]
        assert all(c.time == 3.0 for c in crashes)
        assert all(c.restart_delay == 2.0 for c in crashes)
