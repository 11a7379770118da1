"""Differential parity: the columnar engine core vs the scalar reference.

The columnar rewrite of the serving hot loop is pinned three ways; this
suite is the differential leg.  ``columnar=False`` swaps in the scalar
reference interpreter (per-expert readiness probes, per-candidate
eviction scoring, naive full-prefix trajectory re-matching), and every
test here demands **byte-identical** serialized reports between the two
cores — on the committed golden corpus, at batched and distance-1
serving shapes, on hypothesis-generated worlds and arrival traces,
through fault schedules, and through the cluster driver.  The mutant
screen re-runs through the columnar core to prove the validators kept
their teeth across the rewrite.
"""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, run_cluster
from repro.experiments.common import ExperimentConfig, build_world, run_system
from repro.serving.engine import ServingEngine
from repro.serving.export import report_to_dict, report_to_json
from repro.serving.faults import FaultConfig, FaultSchedule
from repro.validate.harness import detect_mutant
from repro.validate.mutants import MUTANTS

from tests._cluster_testkit import arrival_trace, tiny_world
from tests._strategies import fleet_shapes
from tests.golden.corpus import GOLDEN_CASES, GOLDEN_SEED, load_golden

PARITY_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _bytes(report) -> str:
    return report_to_json(report)


class TestGoldenParity:
    """Both cores reproduce the committed golden corpus byte for byte."""

    @pytest.fixture(scope="class")
    def world_cache(self):
        from repro.experiments.runner import WorldCache

        return WorldCache()

    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c.filename)
    def test_golden_equals_columnar_equals_scalar(self, case, world_cache):
        from repro.experiments.common import ExperimentConfig
        from tests.golden.corpus import (
            GOLDEN_NUM_REQUESTS,
            GOLDEN_NUM_TEST_REQUESTS,
            GOLDEN_SEED,
        )

        config = ExperimentConfig(
            model_name=case.model,
            dataset=case.dataset,
            num_requests=GOLDEN_NUM_REQUESTS,
            num_test_requests=GOLDEN_NUM_TEST_REQUESTS,
            seed=GOLDEN_SEED,
        )
        world = world_cache.get(config)
        golden = json.dumps(load_golden(case), sort_keys=True)
        columnar = json.dumps(
            report_to_dict(run_system(world, case.system)), sort_keys=True
        )
        scalar = json.dumps(
            report_to_dict(run_system(world, case.system, columnar=False)),
            sort_keys=True,
        )
        assert columnar == golden, f"{case.filename}: columnar core drifted"
        assert scalar == golden, f"{case.filename}: scalar reference drifted"


#: Serving shapes off the golden corpus's batch-1 / distance-3 default:
#: batched iterations (many selection lanes per prefetch block) and
#: distance-1 prefetching (one lane per semantic match at batch 1).
LIVE_SHAPES = {
    "batch8": dict(batch_size=8),
    "distance1": dict(prefetch_distance=1),
}


class TestLiveShapeParity:
    """Batched and distance-1 serving match the scalar core byte for byte."""

    @pytest.mark.parametrize("shape", sorted(LIVE_SHAPES))
    @pytest.mark.parametrize(
        "case",
        [c for c in GOLDEN_CASES if c.system == "fmoe"],
        ids=lambda c: c.model,
    )
    def test_columnar_equals_scalar(self, case, shape):
        config = ExperimentConfig(
            model_name=case.model,
            dataset=case.dataset,
            num_requests=16,
            num_test_requests=8,
            seed=GOLDEN_SEED,
            **LIVE_SHAPES[shape],
        )
        world = build_world(config)
        columnar = _bytes(run_system(world, case.system))
        scalar = _bytes(run_system(world, case.system, columnar=False))
        assert columnar == scalar, f"{case.model} {shape}: cores differ"


class TestPropertyParity:
    """Generated workloads serve identically through both cores."""

    @PARITY_SETTINGS
    @given(shape=fleet_shapes(max_replicas=1))
    def test_bare_engine_parity_over_arrival_traces(self, shape):
        world = tiny_world(shape["seed"])
        trace = arrival_trace(
            world, n=shape["n"], gap=shape["gap"], seed=shape["seed"]
        )
        kwargs = dict(requests=trace, respect_arrivals=True)
        assert _bytes(
            run_system(world, "fmoe", columnar=False, **kwargs)
        ) == _bytes(run_system(world, "fmoe", **kwargs))

    @PARITY_SETTINGS
    @given(
        seed=st.integers(0, 3),
        degradation=st.sampled_from((0.0, 0.5, 1.0)),
        failure=st.sampled_from((0.0, 0.05)),
        straggler=st.sampled_from((0.0, 0.5)),
    )
    def test_faulted_parity(self, seed, degradation, failure, straggler):
        """Fault schedules perturb both cores identically."""
        world = tiny_world(seed)
        config = FaultConfig(
            seed=seed,
            pcie_degradation_prob=degradation,
            transfer_failure_prob=failure,
            straggler_prob=straggler,
        )
        reports = [
            run_system(
                world,
                "fmoe",
                faults=FaultSchedule(config),
                columnar=columnar,
            )
            for columnar in (True, False)
        ]
        assert _bytes(reports[0]) == _bytes(reports[1])

    @PARITY_SETTINGS
    @given(shape=fleet_shapes())
    def test_cluster_parity(self, shape):
        """The cluster driver is core-agnostic, replica by replica."""
        world = tiny_world(shape["seed"])
        trace = arrival_trace(
            world, n=shape["n"], gap=shape["gap"], seed=shape["seed"]
        )
        spec = ClusterSpec(
            replicas=shape["replicas"], router=shape["router"]
        )
        columnar = run_cluster(world, "fmoe", spec, requests=trace)
        import repro.cluster.driver as driver
        import repro.experiments.common as common

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                driver,
                "make_engine",
                lambda *args, **kwargs: common.make_engine(
                    *args, columnar=False, **kwargs
                ),
            )
            scalar = run_cluster(world, "fmoe", spec, requests=trace)
        assert _bytes(columnar.aggregate) == _bytes(scalar.aggregate)


class TestMutantsThroughColumnarCore:
    """The batched core did not blunt the validators."""

    def test_columnar_is_the_default_core(self):
        signature = inspect.signature(ServingEngine.__init__)
        assert signature.parameters["columnar"].default is True

    @pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
    def test_mutant_detected_through_batched_core(self, mutant):
        world = tiny_world()
        total = world.model_config.total_expert_bytes
        budget = (
            2
            * world.config.hardware.num_gpus
            * world.model_config.expert_bytes
        )
        pressured = dataclasses.replace(
            world, config=world.config.with_(cache_fraction=budget / total)
        )
        result = detect_mutant(pressured, mutant)
        assert result.flagged, (
            f"mutant {mutant.name!r} survived the columnar core "
            f"(expected detector: {mutant.expected_detector})"
        )
