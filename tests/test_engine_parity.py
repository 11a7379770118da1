"""Differential parity: the serving core against the scalar reference.

One core serves every run.  Its answers are pinned three ways, and
every comparison demands **byte-identical** serialized reports:

- the golden reports equal the core's and the reference's
  (:mod:`tests._reference_core`: naive per-layer trajectory re-matching,
  per-expert prefetch instructions, per-candidate eviction scoring, the
  general serving loop);
- hypothesis-drawn worlds, arrival traces, fault schedules and clusters
  serve identically through the core and the reference;
- the parity corpus (``tests/golden/parity_corpus.json``) holds the
  scalar core's recorded answers on fixed cells.  Its default-model
  cells are checked here on the core alone (the reference costs 4–7x
  there); ``tests/test_parity_corpus.py`` checks the tiny-world cells
  and that the corpus moves under every engine mutant.

Mutant detection itself is screened by ``tests/test_validate_mutants.py``.
"""

from __future__ import annotations

import inspect
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, run_cluster
from repro.experiments.common import make_engine, run_system
from repro.serving.engine import ServingEngine
from repro.serving.export import report_to_dict, report_to_json
from repro.serving.faults import FaultConfig, FaultSchedule
from repro.serving.pool import ExpertPool

from tests._cluster_testkit import arrival_trace, tiny_world
from tests._reference_core import reference_core
from tests._strategies import fleet_shapes
from tests.golden.corpus import GOLDEN_CASES, load_golden
from tests.golden.parity import (
    DEFAULT_WORLDS,
    load_parity_corpus,
    parity_cells,
    run_cell,
)

PARITY_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _bytes(report) -> str:
    return report_to_json(report)


class TestGoldenParity:
    """The core and the reference reproduce the golden reports."""

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
        core = json.dumps(
            report_to_dict(run_system(world, case.system)), sort_keys=True
        )
        with reference_core():
            reference = json.dumps(
                report_to_dict(run_system(world, case.system)),
                sort_keys=True,
            )
        assert core == golden, f"{case.filename}: the core drifted"
        assert reference == golden, f"{case.filename}: the reference drifted"


#: Shape names of the default-model corpus cells (batch, distance): the
#: two shapes the live comparison once served on both models.
LIVE_SHAPES = {(8, 3): "batch8", (1, 1): "distance1"}


def _live_id(cell) -> str:
    model = DEFAULT_WORLDS[cell.world][0]
    return f"{model}-{LIVE_SHAPES[cell.batch_size, cell.prefetch_distance]}"


class TestLiveShapeParity:
    """Default-model cells reproduce the scalar core's recorded answers."""

    @pytest.mark.parametrize(
        "cell",
        [
            pytest.param(cell, id=_live_id(cell))
            for cell in parity_cells()
            if cell.world != "tiny"
        ],
    )
    def test_columnar_equals_scalar(self, cell):
        recorded = load_parity_corpus()[cell.id]
        assert run_cell(cell) == recorded, f"{cell.id}: the core drifted"


class TestPropertyParity:
    """Generated workloads serve identically through core and reference."""

    @PARITY_SETTINGS
    @given(shape=fleet_shapes(max_replicas=1))
    def test_bare_engine_parity_over_arrival_traces(self, shape):
        world = tiny_world(shape["seed"])
        trace = arrival_trace(
            world, n=shape["n"], gap=shape["gap"], seed=shape["seed"]
        )
        kwargs = dict(requests=trace, respect_arrivals=True)
        with reference_core():
            reference = _bytes(run_system(world, "fmoe", **kwargs))
        assert reference == _bytes(run_system(world, "fmoe", **kwargs))

    @PARITY_SETTINGS
    @given(
        seed=st.integers(0, 3),
        degradation=st.sampled_from((0.0, 0.5, 1.0)),
        failure=st.sampled_from((0.0, 0.05)),
        straggler=st.sampled_from((0.0, 0.5)),
    )
    def test_faulted_parity(self, seed, degradation, failure, straggler):
        """Fault schedules perturb core and reference identically."""
        world = tiny_world(seed)
        config = FaultConfig(
            seed=seed,
            pcie_degradation_prob=degradation,
            transfer_failure_prob=failure,
            straggler_prob=straggler,
        )
        core = run_system(world, "fmoe", faults=FaultSchedule(config))
        with reference_core():
            reference = run_system(
                world, "fmoe", faults=FaultSchedule(config)
            )
        assert _bytes(core) == _bytes(reference)

    @PARITY_SETTINGS
    @given(shape=fleet_shapes())
    def test_cluster_parity(self, shape):
        """Every replica serves identically on core and reference."""
        world = tiny_world(shape["seed"])
        trace = arrival_trace(
            world, n=shape["n"], gap=shape["gap"], seed=shape["seed"]
        )
        spec = ClusterSpec(
            replicas=shape["replicas"], router=shape["router"]
        )
        core = run_cluster(world, "fmoe", spec, requests=trace)
        with reference_core():
            reference = run_cluster(world, "fmoe", spec, requests=trace)
        assert _bytes(core.aggregate) == _bytes(reference.aggregate)


class TestOneCore:
    """There is one serving core."""

    def test_no_core_switch(self):
        """No entry point selects a second core."""
        for function in (
            ServingEngine.__init__,
            ExpertPool.__init__,
            make_engine,
            run_system,
        ):
            parameters = inspect.signature(function).parameters
            assert "columnar" not in parameters, function.__qualname__
