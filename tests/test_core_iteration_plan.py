"""The fMoE iteration plan: one trajectory fold and one batched selection
per iteration, pinned against a per-layer search and checked causal."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.matcher import IncrementalTrajectoryMatch
from repro.core.policy import FMoEPolicy
from repro.core.prefetch import select_prefetch_experts, selection_threshold
from repro.core.store import ExpertMapStore
from repro.moe.config import tiny_test_model
from repro.moe.model import MoEModel
from repro.serving.engine import ServingEngine
from repro.serving.request import Request
from repro.workloads.profiler import collect_history

CONFIG = tiny_test_model(num_layers=8, experts_per_layer=8, top_k=2)


def _attached(policy: FMoEPolicy) -> FMoEPolicy:
    ServingEngine(
        MoEModel(CONFIG, seed=0),
        policy,
        cache_budget_bytes=16 * CONFIG.expert_bytes,
    )
    return policy


def _traces():
    model = MoEModel(CONFIG, seed=0)
    requests = [
        Request(100 + i, i % CONFIG.routing.num_clusters, 6, 4, seed=40 + i)
        for i in range(12)
    ]
    return collect_history(model, requests)


def _rows(batch: int, seed: int) -> np.ndarray:
    """One decode iteration's ``(B, L, J)`` gate rows for fresh requests."""
    model = MoEModel(CONFIG, seed=0)
    rows = []
    for b in range(batch):
        session = model.start_session(
            b % CONFIG.routing.num_clusters, 6, 4, seed=seed + b
        )
        session.next_iteration()
        rows.append(session.next_iteration().distributions)
    return np.stack(rows)


def _warm_policy(**kwargs) -> FMoEPolicy:
    policy = _attached(FMoEPolicy(**kwargs))
    policy.warm(_traces())
    return policy


def _per_layer_reference(policy: FMoEPolicy, rows: np.ndarray):
    """Test-local per-layer search: one ``observe_layer`` and one
    ``select_prefetch_experts`` per lane, the way a per-layer hook would
    run it.  Returns per-layer (ids, priorities, prediction, scores)."""
    store = policy.store
    num_layers, width = CONFIG.num_layers, CONFIG.experts_per_layer
    top_k = CONFIG.top_k
    distance = policy.prefetch_distance
    session = IncrementalTrajectoryMatch(store, rows.shape[0])
    entries = []
    for layer in range(num_layers):
        target = layer + distance
        if target >= num_layers:
            break
        result = session.observe_layer(rows[:, layer, :])
        ids, priorities, matched = [], [], []
        for b in range(rows.shape[0]):
            row32 = store.get_map(int(result.indices[b]))[target]
            matched.append(row32)
            row = row32.astype(np.float64)
            if policy.dynamic_threshold:
                selected = select_prefetch_experts(
                    row,
                    selection_threshold(float(result.scores[b])),
                    top_k,
                    max_count=math.ceil(policy.max_prefetch_factor * top_k),
                )
            else:
                selected = np.argsort(row)[::-1][:top_k]
            ids.append(target * width + selected)
            priorities.append(row[selected] / (target - layer))
        entries.append(
            (
                np.concatenate(ids).astype(np.int64),
                np.concatenate(priorities),
                np.max(matched, axis=0),
                np.array(result.scores),
            )
        )
    return entries


def _plan_entries(plan):
    return [
        (*action.prefetch_block, plan.predictions[layer], plan.scores[layer])
        for layer, action in enumerate(plan.actions)
    ]


def _assert_entries_equal(got, want):
    assert len(got) == len(want)
    for layer, (g, w) in enumerate(zip(got, want)):
        for name, a, b in zip(("ids", "priorities", "row", "scores"), g, w):
            assert a.dtype == b.dtype, (layer, name)
            assert np.array_equal(a, b), (layer, name)


class TestPlanMatchesPerLayerSearch:
    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("distance", [1, 3])
    def test_plan_equals_per_layer_loop(self, batch, distance):
        policy = _warm_policy(prefetch_distance=distance)
        rows = _rows(batch, seed=7)
        plan = policy.trajectory_plan(rows)
        assert len(plan.actions) == CONFIG.num_layers - distance
        _assert_entries_equal(
            _plan_entries(plan), _per_layer_reference(policy, rows)
        )

    @pytest.mark.parametrize("batch", [1, 8])
    def test_fixed_threshold_and_trajectory_only(self, batch):
        policy = _warm_policy(
            prefetch_distance=2, use_semantic=False, dynamic_threshold=False
        )
        rows = _rows(batch, seed=11)
        _assert_entries_equal(
            _plan_entries(policy.trajectory_plan(rows)),
            _per_layer_reference(policy, rows),
        )

    def test_shared_store(self):
        store = ExpertMapStore(
            capacity=64,
            num_layers=CONFIG.num_layers,
            num_experts=CONFIG.experts_per_layer,
            embedding_dim=CONFIG.embedding_dim,
        )
        owner = _attached(FMoEPolicy(shared_store=store))
        owner.warm(_traces())
        policy = _attached(FMoEPolicy(shared_store=store))
        rows = _rows(8, seed=3)
        _assert_entries_equal(
            _plan_entries(policy.trajectory_plan(rows)),
            _per_layer_reference(policy, rows),
        )

    @pytest.mark.parametrize("distance", [CONFIG.num_layers, 20])
    def test_distance_past_the_model_plans_nothing(self, distance):
        policy = _warm_policy(prefetch_distance=distance)
        rows = _rows(2, seed=5)
        assert policy.trajectory_plan(rows) is None
        assert _per_layer_reference(policy, rows) == []

    def test_empty_store_plans_nothing(self):
        policy = _attached(FMoEPolicy())
        assert policy.trajectory_plan(_rows(1, seed=5)) is None


class TestPlanIsCausal:
    @pytest.mark.parametrize("batch", [1, 8])
    def test_entry_reads_only_its_prefix(self, batch):
        policy = _warm_policy(prefetch_distance=2)
        rows = _rows(batch, seed=21)
        base = _plan_entries(policy.trajectory_plan(rows))
        other = _rows(batch, seed=900)
        for layer in range(len(base)):
            changed = rows.copy()
            changed[:, layer + 1 :, :] = other[:, layer + 1 :, :]
            entries = _plan_entries(policy.trajectory_plan(changed))
            _assert_entries_equal(entries[: layer + 1], base[: layer + 1])


class TestPlanThroughTheEngine:
    def test_hooks_hand_out_the_plan(self):
        """``on_gate_output(l)`` returns entry ``l`` for each planned layer
        and nothing past ``L − d``."""
        policy = _warm_policy(prefetch_distance=3)
        engine = policy.engine
        blocks = []
        original = policy.on_gate_output

        def spy(ctx, layer):
            action = original(ctx, layer)
            blocks.append((layer, action.prefetch_block))
            return action

        policy.on_gate_output = spy
        engine.run([Request(0, 1, 6, 3, seed=2)])
        planned = CONFIG.num_layers - 3
        for layer, block in blocks:
            if layer < planned:
                ids, _ = block
                assert (ids // CONFIG.experts_per_layer == layer + 3).all()
            else:
                assert block is None
