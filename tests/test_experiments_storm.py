"""The storm experiment: determinism, priority ordering, bounded memory.

The heavyweight claims behind ``repro storm``:

- rows are byte-deterministic — the same config yields the identical
  JSON payload, at any ``jobs`` level;
- under overload the premium tier's SLO attainment is never below the
  batch tier's (that is what the admission bypass buys);
- the full-day census is memory-bounded — a million-request day streams
  under a peak allocation that is a function of tenant count, not day
  length (the paper-scale claim ``benchmarks/README.md`` documents).
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.experiments.common import ExperimentConfig
from repro.experiments.storm import (
    census_with_peak_alloc,
    parse_scale,
    storm_results,
    storm_spec,
)
from repro.workloads.traffic import PREMIUM_PRIORITY, default_storm_traffic

SMALL = ExperimentConfig(num_requests=10, num_test_requests=2)

#: A tiny storm that still sheds: the admission bucket is far below the
#: window's offered rate, so the batch tier pays while premium bypasses.
STORM_KNOBS = dict(
    config=SMALL,
    scales=("60",),
    sim_requests=12,
    admission_rate=0.2,
    admission_burst=1,
    validate=True,
)


def _payload(results):
    return json.dumps(
        [r.to_dict() for r in results], indent=2, sort_keys=True
    )


@pytest.fixture(scope="module")
def sequential_results():
    return storm_results(jobs=1, **STORM_KNOBS)


class TestDeterminism:
    def test_same_seed_same_payload(self, sequential_results):
        again = storm_results(jobs=1, **STORM_KNOBS)
        assert _payload(again) == _payload(sequential_results)

    def test_jobs_never_change_a_byte(self, sequential_results):
        fanned = storm_results(jobs=2, **STORM_KNOBS)
        assert _payload(fanned) == _payload(sequential_results)


class TestPriorityOrdering:
    def test_premium_attainment_at_least_batch(self, sequential_results):
        (result,) = sequential_results
        tiers = {row.tier: row for row in result.tiers}
        assert "premium" in tiers and "batch" in tiers
        assert tiers["batch"].shed > 0, "storm knobs must actually shed"
        assert tiers["premium"].shed_rate <= tiers["batch"].shed_rate
        assert (
            tiers["premium"].slo_attainment
            >= tiers["batch"].slo_attainment
        )

    def test_tier_counts_conserve(self, sequential_results):
        (result,) = sequential_results
        for row in result.tiers:
            assert row.served + row.shed + row.failed == row.offered
        assert (
            sum(row.offered for row in result.tiers)
            == result.sim_requests
        )

    def test_noisy_neighbor_metric_present(self, sequential_results):
        (result,) = sequential_results
        assert len(result.tenants) == 3
        for row in result.tenants:
            if row.hit_rate_mixed is not None and (
                row.hit_rate_solo is not None
            ):
                assert row.cache_pollution == pytest.approx(
                    row.hit_rate_solo - row.hit_rate_mixed
                )


class TestScales:
    def test_parse_scale_forms(self):
        assert parse_scale("10k") == ("10k", 10_000)
        assert parse_scale("100K") == ("100k", 100_000)
        assert parse_scale("1m") == ("1m", 1_000_000)
        assert parse_scale("2500") == ("2500", 2500)

    def test_parse_scale_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_scale("huge")
        with pytest.raises(ConfigError):
            parse_scale("1")

    def test_storm_spec_bypasses_premium(self):
        spec = storm_spec()
        assert spec.shared_store
        assert spec.resilience.priority_bypass_level == PREMIUM_PRIORITY

    def test_sim_requests_must_be_positive(self):
        with pytest.raises(ConfigError):
            storm_results(config=SMALL, scales=("60",), sim_requests=0)


class TestMemoryBound:
    def test_million_request_day_streams_bounded(self):
        # The census must never materialize the day: its peak traced
        # allocation is flat in the day's length, so two short days bound
        # the 1M one.  A 4x longer day may add at most 64 KiB, which even
        # one retained byte per request would exceed.  (The full 1M day
        # is streamed end to end by perfbench's census-1m workload.)
        peaks = {}
        for requests in (25_000, 100_000):
            census, peak = census_with_peak_alloc(
                default_storm_traffic(requests)
            )
            assert census.total_requests == requests
            assert sum(census.per_tenant.values()) == requests
            assert peak < 64 * 1024 * 1024, f"peak allocation {peak} bytes"
            peaks[requests] = peak
        assert peaks[100_000] <= peaks[25_000] + 64 * 1024, peaks
