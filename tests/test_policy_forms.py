"""One prefetch form and one eviction hook.

Every policy asks for prefetches through ``PolicyAction.prefetch_block``
and answers eviction through ``eviction_score_matrix(now)``, a flat
``(L·J,)`` float64 vector.  The tests here pin the vector and block forms
against test-local copies of the per-expert scalar code they replaced,
pin when the pool's refusing oracles raise, and guard the single form
structurally.
"""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.serving.engine as engine_module
from repro.baselines import NoOffloadPolicy, OraclePolicy
from repro.baselines.base import BasePolicy, LFUTracker, LRUTracker
from repro.core.policy import FMoEPolicy
from repro.errors import CapacityError
from repro.experiments.common import (
    POLICY_NAMES,
    ExperimentConfig,
    make_policy,
)
from repro.moe.config import tiny_test_model
from repro.moe.model import MoEModel
from repro.serving.engine import PolicyAction, ServingEngine
from repro.serving.hardware import HardwareConfig
from repro.serving.pool import ExpertPool, _EvictNothing
from repro.serving.request import Request
from repro.types import ExpertId
from repro.validate.mutants import _HottestFirstOracle
from repro.workloads.profiler import collect_history

E = ExpertId


# --------------------------------------------------------------------- #
# Test-local copies of the deleted per-expert scalar code
# --------------------------------------------------------------------- #


class ScalarLRU:
    """The per-expert LRU tracker the dense one replaced."""

    def __init__(self):
        self._last_use = {}

    def touch(self, expert, now):
        self._last_use[expert] = now

    def eviction_priority(self, expert, now):
        return now - self._last_use.get(expert, -1.0)


class ScalarLFU:
    """The per-expert LFU tracker the dense one replaced."""

    def __init__(self):
        self._freq = {}

    def touch(self, expert, now):
        self._freq[expert] = self._freq.get(expert, 0) + 1

    def eviction_priority(self, expert, now):
        return 1.0 / (1.0 + self._freq.get(expert, 0))


def scalar_fmoe_priority(scorer, expert):
    """The scorer's per-expert 1/(p·freq) formula."""
    p = max(scorer.predicted_probability(expert), scorer.MIN_PROBABILITY)
    freq = max(scorer.frequency(expert), 1)
    return 1.0 / (p * freq)


def scalar_belady_priority(policy, lfu, expert, now):
    """The oracle's per-expert Belady-over-LFU rule."""
    next_use = policy._next_use.get(expert)
    if next_use is not None and next_use >= policy._front:
        return float(next_use - policy.config.num_layers)
    return lfu.eviction_priority(expert, now)


def scalar_topk(layer, distribution, k, base_priority=0.0):
    """The per-expert top-k instruction list: (expert, priority) pairs."""
    k = min(k, distribution.shape[-1])
    top = np.argsort(distribution)[::-1][:k]
    return [
        (ExpertId(layer, int(j)), base_priority + float(distribution[j]))
        for j in top
    ]


def cells(num_layers, experts_per_layer, score):
    """A flat vector of ``score(expert)`` in ``layer * J + j`` order."""
    return np.array(
        [
            score(ExpertId(layer, j))
            for layer in range(num_layers)
            for j in range(experts_per_layer)
        ]
    )


# --------------------------------------------------------------------- #
# Vector forms equal the scalar formulas cell by cell
# --------------------------------------------------------------------- #

touches = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 3),
        st.floats(0, 50, allow_nan=False),
    ),
    max_size=30,
)
clocks = st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=4)


@given(touches=touches, clocks=clocks)
@settings(max_examples=60, deadline=None)
def test_tracker_vectors_equal_scalar_trackers(touches, clocks):
    dense = [LRUTracker(3, 4), LFUTracker(3, 4)]
    scalar = [ScalarLRU(), ScalarLFU()]
    for layer, j, now in touches:
        for tracker in (*dense, *scalar):
            tracker.touch(E(layer, j), now)
    for now in clocks:
        for new, old in zip(dense, scalar):
            vector = new.eviction_score_matrix(now)
            assert vector.dtype == np.float64
            expected = cells(3, 4, lambda e: old.eviction_priority(e, now))
            assert np.array_equal(vector, expected)


class CheckedOracle(OraclePolicy):
    """The oracle, checked against the scalar Belady rule at every
    eviction the pool asks it for."""

    def __init__(self, prefetch_distance):
        super().__init__(prefetch_distance)
        self.scalar_lfu = ScalarLFU()
        self.clocks = []

    def on_expert_served(self, expert, hit, now):
        super().on_expert_served(expert, hit, now)
        self.scalar_lfu.touch(expert, now)

    def eviction_score_matrix(self, now):
        vector = super().eviction_score_matrix(now)
        expected = cells(
            self.config.num_layers,
            self.config.experts_per_layer,
            lambda e: scalar_belady_priority(self, self.scalar_lfu, e, now),
        )
        assert np.array_equal(vector, expected)
        self.clocks.append(now)
        return vector


class CheckedFMoE(FMoEPolicy):
    """fMoE, checked against the scalar formula of its configured
    algorithm (and the negating mutant against its negation) at every
    eviction the pool asks it for."""

    def __init__(self, eviction_algorithm):
        super().__init__(
            prefetch_distance=2, eviction_algorithm=eviction_algorithm
        )
        self.scalar = {"lru": ScalarLRU(), "lfu": ScalarLFU()}
        self.clocks = []

    def on_expert_served(self, expert, hit, now):
        super().on_expert_served(expert, hit, now)
        for tracker in self.scalar.values():
            tracker.touch(expert, now)

    def _scalar(self, expert, now):
        if self.eviction_algorithm == "fmoe":
            return scalar_fmoe_priority(self.scorer, expert)
        return self.scalar[self.eviction_algorithm].eviction_priority(
            expert, now
        )

    def eviction_score_matrix(self, now):
        vector = super().eviction_score_matrix(now)
        shape = (self.config.num_layers, self.config.experts_per_layer)
        expected = cells(*shape, lambda e: self._scalar(e, now))
        assert vector.dtype == np.float64
        assert np.array_equal(vector, expected)
        # The mutant wraps this policy's unchecked hook (``super()``).
        mutant = _HottestFirstOracle(super()).eviction_score_matrix(now)
        assert np.array_equal(
            mutant, cells(*shape, lambda e: -self._scalar(e, now))
        )
        self.clocks.append(now)
        return vector


def serve_small(policy, budget_experts=6):
    config = tiny_test_model()
    model = MoEModel(config, seed=0)
    engine = ServingEngine(
        model,
        policy,
        cache_budget_bytes=budget_experts * config.expert_bytes,
        hardware=HardwareConfig(
            num_gpus=2, framework_layer_overhead_seconds=1e-3
        ),
    )
    policy.warm(collect_history(model, [Request(99, 1, 6, 3, seed=3)]))
    engine.run([Request(0, 1, 6, 4, seed=4), Request(1, 2, 5, 3, seed=5)])
    return policy


def test_oracle_vector_equals_scalar_belady():
    policy = serve_small(CheckedOracle(prefetch_distance=2))
    assert len(set(policy.clocks)) >= 3


@pytest.mark.parametrize("algorithm", ["fmoe", "lru", "lfu"])
def test_fmoe_vector_equals_scalar_formula(algorithm):
    policy = serve_small(CheckedFMoE(algorithm))
    assert len(set(policy.clocks)) >= 3


# --------------------------------------------------------------------- #
# The top-k block equals the per-expert instruction list
# --------------------------------------------------------------------- #


@given(
    values=st.lists(
        st.sampled_from([0.0, 0.125, 0.25, 0.3, 0.5, 0.7]),
        min_size=1,
        max_size=8,
    ),
    k=st.integers(1, 11),
    layer=st.integers(0, 5),
    base=st.sampled_from([0.0, 1.0, 0.1]),
    dtype=st.sampled_from([np.float64, np.float32]),
)
@settings(max_examples=200, deadline=None)
def test_topk_block_equals_scalar_list(values, k, layer, base, dtype):
    # The sampled values repeat, so ties are common, and k runs past J.
    distribution = np.array(values, dtype=dtype)
    width = len(values)
    ids, priorities = BasePolicy.topk_block(layer, distribution, k, base)
    expected = scalar_topk(layer, distribution, k, base)
    assert ids.dtype == np.int64 and priorities.dtype == np.float64
    assert [ExpertId(*divmod(int(i), width)) for i in ids] == [
        e for e, _ in expected
    ]
    assert np.array_equal(priorities, [p for _, p in expected])
    # The engine's issue order is Python's stable descending sort.
    issued = np.argsort(-priorities, kind="stable").tolist()
    assert issued == sorted(
        range(len(expected)), key=lambda i: expected[i][1], reverse=True
    )


# --------------------------------------------------------------------- #
# Refusing oracles raise exactly when there is something to evict
# --------------------------------------------------------------------- #


@pytest.fixture
def pool_config():
    return tiny_test_model(num_layers=4, experts_per_layer=4)


def refusing_pool(config, oracle):
    """Two experts per device; experts with even flat ids share device 0."""
    pool = ExpertPool(
        config,
        HardwareConfig(
            num_gpus=2,
            pcie_bandwidth_bps=1e6,
            framework_layer_overhead_seconds=0.0,
        ),
        cache_budget_bytes=4 * config.expert_bytes,
    )
    pool.set_eviction_oracle(oracle)
    return pool


refusers = pytest.mark.parametrize(
    "oracle",
    [_EvictNothing(), NoOffloadPolicy()],
    ids=["evict-nothing", "no-offload"],
)


@refusers
def test_refusal_raises_with_an_evictable_candidate(pool_config, oracle):
    pool = refusing_pool(pool_config, oracle)
    pool.preload([E(0, 0), E(0, 2)])
    pool.protected = {E(0, 0)}  # one candidate left: E(0, 2)
    with pytest.raises(CapacityError):
        pool.prefetch(E(1, 0), 100.0)


@refusers
def test_refusal_is_silent_without_a_candidate(pool_config, oracle):
    pool = refusing_pool(pool_config, oracle)
    pool.preload([E(0, 0), E(0, 2)])
    pool.protected = {E(0, 0), E(0, 2)}
    assert pool.prefetch(E(1, 0), 100.0) == "rejected"
    # In flight at t=0: not a candidate either.
    pool = refusing_pool(pool_config, oracle)
    assert pool.prefetch(E(0, 0), 0.0) == "scheduled"
    assert pool.prefetch(E(0, 2), 0.0) == "scheduled"
    assert pool.prefetch(E(1, 0), 0.0) == "rejected"


@refusers
def test_urgent_load_without_candidate_cancels_queued(pool_config, oracle):
    pool = refusing_pool(pool_config, oracle)
    pool.prefetch(E(0, 0), 0.0)  # in flight on device 0
    pool.prefetch(E(0, 2), 0.0)  # queued behind it on device 0
    done = pool.load_on_demand(E(1, 2), now=0.0)
    assert done > 0.0
    assert pool.stats.prefetch_cancelled == 1
    assert not pool.is_tracked(E(0, 2))


# --------------------------------------------------------------------- #
# Structural guard
# --------------------------------------------------------------------- #


class TestOneForm:
    def test_engine_has_no_instruction_class(self):
        assert not hasattr(engine_module, "PrefetchInstruction")

    def test_policy_action_has_one_prefetch_field(self):
        names = [f.name for f in dataclasses.fields(PolicyAction)]
        assert [n for n in names if "prefetch" in n] == ["prefetch_block"]
        # The read-only ``prefetch`` view is empty and cannot be set.
        action = PolicyAction()
        assert len(action.prefetch) == 0
        with pytest.raises(AttributeError):
            action.prefetch = []

    def test_no_class_defines_eviction_priority(self):
        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and item.name == "eviction_priority"
                    ):
                        offenders.append(f"{path.name}:{node.name}")
        assert offenders == []

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_every_policy_answers_with_a_flat_vector(self, name, tiny_model):
        config = tiny_model.config
        policy = make_policy(name, ExperimentConfig())
        ServingEngine(
            tiny_model,
            policy,
            cache_budget_bytes=2 * config.total_expert_bytes,
        )
        if name == "no-offload":
            # Its answer is the refusal: it never evicts.
            with pytest.raises(CapacityError):
                policy.eviction_score_matrix(0.0)
            return
        scores = policy.eviction_score_matrix(0.0)
        assert isinstance(scores, np.ndarray)
        assert scores.dtype == np.float64
        assert scores.shape == (config.num_layers * config.experts_per_layer,)
