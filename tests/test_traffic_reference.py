"""The block-columnar traffic stream against the per-request code it replaced.

The traffic layer draws each block's routing seeds in one
``integers(2**31, size=block)`` call, reads the block arrays as Python
lists, inlines the rate-curve lookup, merges ``(arrival, id, request)``
rows without a key and folds the census into locals.  Every one of those
steps must keep the stream and the census byte-identical, so this suite
pins them against test-local copies of the per-request generator, the
keyed merge and the attribute-by-attribute census fold:

- :func:`tenant_arrivals` equals the reference generator field for field
  (exact float ``==``) across flat and diurnal curves, several blocks, a
  non-zero start time and hour-boundary crossings;
- :func:`stream_traffic` equals the keyed merge of the reference
  generators, for hypothesis multi-tenant configs and a multi-block day;
- one block seed draw equals ``block`` scalar draws in values and in the
  generator state it leaves;
- :func:`traffic_census` equals the reference fold, dict order included.
"""

from __future__ import annotations

import heapq
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.request import Request
from repro.workloads.datasets import (
    _bounded_lognormal,
    get_dataset_profile,
    make_dataset,
)
from repro.workloads.traffic import (
    BLOCK_REQUESTS,
    DAY_SECONDS,
    DIURNAL_BUSINESS,
    DIURNAL_NIGHT,
    FLAT_CURVE,
    TenantSpec,
    TierCensus,
    TrafficCensus,
    default_storm_traffic,
    stream_traffic,
    tenant_arrivals,
    traffic_census,
)

from tests._strategies import traffic_configs


def reference_tenant_arrivals(
    spec, *, seed=0, start_id=0, day_seconds=DAY_SECONDS
):
    """The per-request generator: one scalar seed draw per request."""
    spec.validate()
    profile = get_dataset_profile(spec.dataset)
    gap_rng = np.random.default_rng(seed)
    dataset_rng = np.random.default_rng(seed + 1)
    clusters = profile.effective_clusters()
    weights = profile.cluster_weights()
    shape = 1.0 / spec.burstiness_cv**2
    scale = spec.mean_interarrival_seconds / shape
    running = 0.0
    base = 0.0
    prev_arrival = spec.start_time
    produced = 0
    first = True
    while produced < spec.num_requests:
        block = min(BLOCK_REQUESTS, spec.num_requests - produced)
        block_clusters = dataset_rng.choice(clusters, size=block, p=weights)
        block_inputs = _bounded_lognormal(
            dataset_rng,
            profile.input_log_mean,
            profile.input_log_sigma,
            profile.input_min,
            profile.input_max,
            block,
        )
        block_outputs = _bounded_lognormal(
            dataset_rng,
            profile.output_log_mean,
            profile.output_log_sigma,
            profile.output_min,
            profile.output_max,
            block,
        )
        block_seeds = [int(dataset_rng.integers(2**31)) for _ in range(block)]
        gaps = gap_rng.gamma(shape, scale, size=block)
        for i in range(block):
            multiplier = spec.rate_multiplier(prev_arrival, day_seconds)
            running += float(gaps[i]) / multiplier
            if first:
                base = running
                first = False
            arrival = float(spec.start_time + (running - base))
            prev_arrival = arrival
            yield Request(
                request_id=start_id + produced + i,
                cluster=int(block_clusters[i]),
                input_tokens=int(block_inputs[i]),
                output_tokens=int(block_outputs[i]),
                arrival_time=arrival,
                seed=block_seeds[i],
                priority=spec.priority,
                tenant=spec.name,
                tier=spec.tier,
            )
        produced += block


def reference_stream(config):
    """The keyed merge of the reference generators."""
    streams = [
        reference_tenant_arrivals(
            tenant,
            seed=config.tenant_seed(index),
            start_id=config.tenant_start_id(index),
            day_seconds=config.day_seconds,
        )
        for index, tenant in enumerate(config.tenants)
    ]
    return heapq.merge(
        *streams, key=lambda r: (r.arrival_time, r.request_id)
    )


def reference_census(arrivals):
    """The census folded attribute by attribute into the dataclasses."""
    census = TrafficCensus()
    bucket = -1
    bucket_count = 0
    for request in arrivals:
        if census.total_requests == 0:
            census.first_arrival = request.arrival_time
        census.last_arrival = request.arrival_time
        census.total_requests += 1
        census.per_tenant[request.tenant] = (
            census.per_tenant.get(request.tenant, 0) + 1
        )
        tier = census.per_tier.setdefault(request.tier, TierCensus())
        tier.offered += 1
        tier.input_tokens += request.input_tokens
        tier.output_tokens += request.output_tokens
        minute = int(request.arrival_time // 60.0)
        if minute == bucket:
            bucket_count += 1
        else:
            bucket = minute
            bucket_count = 1
        if bucket_count > census.peak_minute_requests:
            census.peak_minute_requests = bucket_count
    return census


def assert_same_requests(actual, expected):
    actual, expected = list(actual), list(expected)
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert astuple(got) == astuple(want)
        assert type(got.arrival_time) is float
        assert type(got.seed) is int


class TestTenantArrivals:
    @pytest.mark.parametrize(
        "curve", (FLAT_CURVE, DIURNAL_BUSINESS, DIURNAL_NIGHT, (0.5, 2.0))
    )
    def test_multi_block_day_matches_reference(self, curve):
        # Two blocks and a partial third; a 30 s mean gap crosses every
        # hour of the day and starts 600 s before the first boundary.
        spec = TenantSpec(
            name="t",
            dataset="sharegpt",
            num_requests=2 * BLOCK_REQUESTS + 37,
            mean_interarrival_seconds=30.0,
            burstiness_cv=2.5,
            tier="premium",
            rate_curve=curve,
            start_time=3000.0,
        )
        assert_same_requests(
            tenant_arrivals(spec, seed=7, start_id=5),
            reference_tenant_arrivals(spec, seed=7, start_id=5),
        )

    def test_block_boundary_and_short_day(self):
        # BLOCK_REQUESTS + 37 requests packed into a 1000 s day: the
        # diurnal curve wraps many times inside each block.
        spec = TenantSpec(
            name="t",
            num_requests=BLOCK_REQUESTS + 37,
            mean_interarrival_seconds=0.5,
            rate_curve=DIURNAL_BUSINESS,
            start_time=999.0,
        )
        assert_same_requests(
            tenant_arrivals(spec, seed=3, day_seconds=1000.0),
            reference_tenant_arrivals(spec, seed=3, day_seconds=1000.0),
        )

    @given(
        seed=st.integers(0, 500),
        n=st.integers(1, 300),
        mean=st.sampled_from((0.05, 2.0, 600.0)),
        cv=st.sampled_from((0.3, 1.0, 4.0)),
        curve=st.sampled_from(
            (FLAT_CURVE, DIURNAL_BUSINESS, DIURNAL_NIGHT, (0.5, 2.0))
        ),
        start=st.sampled_from((0.0, 3599.5, 86000.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_tenant_matches_reference(
        self, seed, n, mean, cv, curve, start
    ):
        spec = TenantSpec(
            name="t",
            num_requests=n,
            mean_interarrival_seconds=mean,
            burstiness_cv=cv,
            rate_curve=curve,
            start_time=start,
        )
        assert_same_requests(
            tenant_arrivals(spec, seed=seed, start_id=n),
            reference_tenant_arrivals(spec, seed=seed, start_id=n),
        )


class TestStream:
    @given(config=traffic_configs())
    @settings(max_examples=25, deadline=None)
    def test_merge_matches_keyed_reference(self, config):
        assert_same_requests(stream_traffic(config), reference_stream(config))

    def test_multi_block_day_matches_keyed_reference(self):
        # 13k requests: the standard and batch tenants span several blocks.
        config = default_storm_traffic(13_000, seed=4)
        assert_same_requests(stream_traffic(config), reference_stream(config))


class TestBlockSeedDraw:
    @pytest.mark.parametrize("block", (0, 1, 2, 37, BLOCK_REQUESTS))
    @pytest.mark.parametrize("seed", (0, 1, 99))
    def test_one_call_equals_scalar_draws(self, block, seed):
        batched = np.random.default_rng(seed)
        scalar = np.random.default_rng(seed)
        # Leave the generators mid-stream, as the length draws do.
        batched.lognormal(1.0, 0.5, 3)
        scalar.lognormal(1.0, 0.5, 3)
        values = batched.integers(2**31, size=block).tolist()
        assert values == [int(scalar.integers(2**31)) for _ in range(block)]
        assert batched.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("size", (0, 1, 50))
    def test_make_dataset_matches_scalar_draws(self, size):
        profile = get_dataset_profile("sharegpt")
        rng = np.random.default_rng(11)
        clusters = rng.choice(
            profile.effective_clusters(),
            size=size,
            p=profile.cluster_weights(),
        )
        inputs = _bounded_lognormal(
            rng,
            profile.input_log_mean,
            profile.input_log_sigma,
            profile.input_min,
            profile.input_max,
            size,
        )
        outputs = _bounded_lognormal(
            rng,
            profile.output_log_mean,
            profile.output_log_sigma,
            profile.output_min,
            profile.output_max,
            size,
        )
        expected = [
            Request(
                request_id=3 + i,
                cluster=int(clusters[i]),
                input_tokens=int(inputs[i]),
                output_tokens=int(outputs[i]),
                seed=int(rng.integers(2**31)),
            )
            for i in range(size)
        ]
        assert_same_requests(
            make_dataset(profile, size, seed=11, start_id=3), expected
        )


class TestCensus:
    @given(config=traffic_configs())
    @settings(max_examples=25, deadline=None)
    def test_census_matches_reference_fold(self, config):
        census = traffic_census(stream_traffic(config))
        expected = reference_census(stream_traffic(config))
        assert census.to_dict() == expected.to_dict()
        # Same fields and the same first-seen dict order.
        assert repr(census) == repr(expected)

    def test_multi_block_day_census(self):
        config = default_storm_traffic(13_000, seed=4)
        census = traffic_census(stream_traffic(config))
        assert repr(census) == repr(reference_census(stream_traffic(config)))

    def test_empty_stream(self):
        assert traffic_census(iter(())) == TrafficCensus()
