"""Tests for the synthetic gate: shapes, statistics, and calibration.

These pin down the routing properties the reproduction depends on: peaked
per-iteration distributions, balanced long-run usage, layer-local walks,
and distance-decaying speculation.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.moe.config import tiny_test_model
from repro.moe.gating import (
    MAX_PREFILL_TOKEN_DRAWS,
    PhaseProcess,
    SyntheticGate,
    softmax_rows,
    top_k_indices,
)


class TestHelpers:
    def test_softmax_rows_normalized(self, rng):
        logits = rng.standard_normal((5, 7))
        probs = softmax_rows(logits)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs > 0)

    def test_softmax_rows_stable_for_large_logits(self):
        probs = softmax_rows(np.array([[1e4, 0.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    def test_top_k_indices_sorted_and_correct(self):
        row = np.array([0.1, 0.5, 0.2, 0.9])
        assert top_k_indices(row, 2).tolist() == [1, 3]

    def test_top_k_full_width(self):
        row = np.array([0.3, 0.7])
        assert top_k_indices(row, 5).tolist() == [0, 1]


class TestPhaseProcess:
    def test_stays_with_probability_one(self, rng):
        proc = PhaseProcess(4, stay_prob=1.0, initial_phase=2, rng=rng)
        assert all(proc.advance() == 2 for _ in range(50))

    def test_eventually_moves_with_zero_stay(self, rng):
        proc = PhaseProcess(8, stay_prob=0.0, initial_phase=0, rng=rng)
        phases = {proc.advance() for _ in range(100)}
        assert len(phases) > 1

    def test_single_phase_never_moves(self, rng):
        proc = PhaseProcess(1, stay_prob=0.0, initial_phase=0, rng=rng)
        assert all(proc.advance() == 0 for _ in range(10))

    def test_invalid_initial_phase(self, rng):
        with pytest.raises(ConfigError):
            PhaseProcess(4, 0.9, initial_phase=4, rng=rng)


class TestSyntheticGate:
    @pytest.fixture
    def gate(self, tiny_config):
        return SyntheticGate(tiny_config, seed=0)

    def test_decode_sample_shapes(self, gate, tiny_config, rng):
        sample = gate.sample_decode(0, 0, rng)
        L, J = tiny_config.num_layers, tiny_config.experts_per_layer
        assert sample.distributions.shape == (L, J)
        assert sample.logits.shape == (L, J)
        assert len(sample.activated) == L
        for layer in range(L):
            assert len(sample.activated[layer]) == tiny_config.top_k

    def test_distributions_are_probabilities(self, gate, rng):
        sample = gate.sample_decode(1, 1, rng)
        assert np.allclose(sample.distributions.sum(axis=1), 1.0)
        assert np.all(sample.distributions >= 0)

    def test_activated_match_topk_of_distribution(self, gate, tiny_config, rng):
        sample = gate.sample_decode(2, 0, rng)
        for layer in range(tiny_config.num_layers):
            expected = top_k_indices(
                sample.distributions[layer], tiny_config.top_k
            )
            assert np.array_equal(sample.activated[layer], expected)

    def test_iteration_distributions_are_peaked(self, gate, tiny_config, rng):
        """Fine-grained entropy must sit well below uniform (Fig. 3)."""
        sample = gate.sample_decode(0, 0, rng)
        uniform = np.log2(tiny_config.experts_per_layer)
        entropies = [
            -(p[p > 0] * np.log2(p[p > 0])).sum()
            for p in sample.distributions
        ]
        assert np.mean(entropies) < 0.75 * uniform

    def test_long_run_usage_is_balanced(self, tiny_config, rng):
        """Load-balancing loss signature (§2.3): aggregate near-uniform."""
        gate = SyntheticGate(tiny_config, seed=0)
        J = tiny_config.experts_per_layer
        counts = np.zeros(J)
        profile = tiny_config.routing
        for _ in range(600):
            c = int(rng.integers(profile.num_clusters))
            s = int(rng.integers(profile.phases_per_cluster))
            sample = gate.sample_decode(c, s, rng)
            for layer_activated in sample.activated:
                counts[layer_activated] += 1
        fractions = counts / counts.sum()
        assert fractions.max() < 2.5 / J
        assert fractions.min() > 0.3 / J

    def test_same_context_samples_are_similar(self, gate, rng):
        a = gate.sample_decode(3, 1, rng)
        b = gate.sample_decode(3, 1, rng)
        overlap = [
            len(set(x.tolist()) & set(y.tolist())) / len(x)
            for x, y in zip(a.activated, b.activated)
        ]
        # Single (cluster, phase) pair: high variance; the aggregate
        # stability target (>0.75) is asserted by the calibration tests.
        assert np.mean(overlap) > 0.55

    def test_prefill_activates_more_experts_than_decode(
        self, gate, tiny_config, rng
    ):
        prefill = gate.sample_prefill(0, 0, num_tokens=40, rng=rng)
        sizes = [len(a) for a in prefill.activated]
        assert np.mean(sizes) > tiny_config.top_k

    def test_prefill_draw_cap(self, gate, rng):
        big = gate.sample_prefill(0, 0, num_tokens=10_000, rng=rng)
        assert big is not None  # completes quickly thanks to the cap
        assert MAX_PREFILL_TOKEN_DRAWS < 10_000

    def test_prefill_rejects_zero_tokens(self, gate, rng):
        with pytest.raises(ConfigError):
            gate.sample_prefill(0, 0, num_tokens=0, rng=rng)

    def test_archetypes_deterministic_per_seed(self, tiny_config):
        a = SyntheticGate(tiny_config, seed=5)
        b = SyntheticGate(tiny_config, seed=5)
        assert np.allclose(
            a.archetype_logits(1, 2), b.archetype_logits(1, 2)
        )
        c = SyntheticGate(tiny_config, seed=6)
        assert not np.allclose(
            a.archetype_logits(1, 2), c.archetype_logits(1, 2)
        )

    def test_phases_share_anchor_layers(self, gate):
        anchor = gate.anchor_layers
        a = gate.archetype_logits(0, 0)
        b = gate.archetype_logits(0, 1)
        assert np.allclose(a[:anchor], b[:anchor])

    def test_phases_differ_past_anchor(self, tiny_config):
        gate = SyntheticGate(tiny_config, seed=0)
        diffs = []
        for cluster in range(4):
            a = gate.archetype_logits(cluster, 0)
            b = gate.archetype_logits(cluster, 1)
            diffs.append(np.abs(a[gate.anchor_layers :] - b[gate.anchor_layers :]).sum())
        assert max(diffs) > 0


class TestSpeculation:
    @pytest.fixture
    def gate(self):
        return SyntheticGate(tiny_test_model(num_layers=12), seed=0)

    def _accuracy(self, gate, distance, rng, trials=150, multiplier=1.0):
        k = gate.config.top_k
        hits = total = 0
        for _ in range(trials):
            sample = gate.sample_decode(0, 0, rng)
            target = int(rng.integers(distance, gate.config.num_layers))
            predicted = gate.speculate(
                sample.logits, target, distance, rng, multiplier
            )
            pred_set = set(top_k_indices(predicted, k).tolist())
            actual = set(sample.activated[target].tolist())
            hits += len(pred_set & actual)
            total += k
        return hits / total

    def test_accuracy_decays_with_distance(self, gate, rng):
        near = self._accuracy(gate, 1, rng)
        far = self._accuracy(gate, 6, rng)
        assert near > far + 0.1

    def test_distance_one_is_accurate(self, gate, rng):
        assert self._accuracy(gate, 1, rng) > 0.7

    def test_quality_multiplier_improves_accuracy(self, gate, rng):
        raw = self._accuracy(gate, 3, rng)
        learned = self._accuracy(gate, 3, rng, multiplier=0.3)
        assert learned > raw

    def test_invalid_distance(self, gate, rng):
        sample = gate.sample_decode(0, 0, rng)
        with pytest.raises(ConfigError):
            gate.speculate(sample.logits, 3, 0, rng)

    def test_negative_multiplier_rejected(self, gate, rng):
        sample = gate.sample_decode(0, 0, rng)
        with pytest.raises(ConfigError):
            gate.speculate(sample.logits, 3, 1, rng, noise_multiplier=-1.0)


class TestPromptBias:
    def test_bias_shape_and_scale(self, tiny_config, rng):
        gate = SyntheticGate(tiny_config, seed=0)
        residual = rng.standard_normal(tiny_config.embedding_dim)
        bias = gate.prompt_bias(residual)
        assert bias.shape == (
            tiny_config.num_layers,
            tiny_config.experts_per_layer,
        )
        # Std should be on the order of prompt_deviation.
        assert 0.1 < bias.std() < 3 * tiny_config.routing.prompt_deviation

    def test_close_residuals_give_close_biases(self, tiny_config, rng):
        gate = SyntheticGate(tiny_config, seed=0)
        g = rng.standard_normal(tiny_config.embedding_dim)
        near = g + 0.1 * rng.standard_normal(tiny_config.embedding_dim)
        far = rng.standard_normal(tiny_config.embedding_dim)
        b0, b1, b2 = (gate.prompt_bias(x) for x in (g, near, far))
        assert np.abs(b0 - b1).mean() < np.abs(b0 - b2).mean()

    def test_wrong_residual_shape_raises(self, tiny_config):
        gate = SyntheticGate(tiny_config, seed=0)
        with pytest.raises(ConfigError):
            gate.prompt_bias(np.zeros(3))


def _row_top_k(row: np.ndarray, k: int) -> np.ndarray:
    """Test-local per-row top-K: the one-row-at-a-time selection."""
    if k >= row.shape[0]:
        return np.arange(row.shape[0])
    return np.sort(np.argpartition(row, -k)[-k:])


def _default_gates(top_k_full: bool):
    import dataclasses

    from repro.moe.config import get_model_config

    for name in ("mixtral-8x7b", "qwen1.5-moe"):
        config = get_model_config(name)
        if top_k_full:
            config = dataclasses.replace(
                config, top_k=config.experts_per_layer
            )
        yield SyntheticGate(config, seed=3)


class TestWholeIterationSampling:
    """Stacked top-K selection equals one selection per row."""

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 11])
    def test_stacked_top_k_equals_per_row(self, rng, k):
        stack = rng.random((3, 5, 8))
        got = top_k_indices(stack, k)
        assert got.shape == (3, 5, min(k, 8))
        for index in np.ndindex(3, 5):
            assert np.array_equal(got[index], _row_top_k(stack[index], k))

    @pytest.mark.parametrize("top_k_full", [False, True])
    def test_decode_equals_per_layer_reference(self, top_k_full):
        for gate in _default_gates(top_k_full):
            rng = np.random.default_rng(17)
            for step in range(6):
                sample = gate.sample_decode(step % 3, 0, rng)
                k = gate.config.top_k
                assert len(sample.activated) == gate.config.num_layers
                for row, got in zip(sample.distributions, sample.activated):
                    want = _row_top_k(row, k)
                    assert got.dtype == np.int64
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("top_k_full", [False, True])
    def test_prefill_equals_per_token_union(self, top_k_full):
        import copy

        for gate in _default_gates(top_k_full):
            config = gate.config
            rng = np.random.default_rng(29)
            for num_tokens in (1, 5, 300):
                replay = copy.deepcopy(rng)
                sample = gate.sample_prefill(1, 0, num_tokens, rng)
                # Replay the same draws to get the per-token routing.
                draws = min(num_tokens, MAX_PREFILL_TOKEN_DRAWS)
                arch = gate.archetype_logits(1, 0)
                scale = config.routing.iteration_noise * gate._width_factor()
                per_token = gate._logit_gain() * (
                    arch[None] + replay.gumbel(0.0, scale, (draws, *arch.shape))
                )
                dists = softmax_rows(per_token)
                assert np.array_equal(sample.distributions, dists.mean(axis=0))
                for layer, got in enumerate(sample.activated):
                    chosen: set[int] = set()
                    for t in range(draws):
                        chosen.update(
                            _row_top_k(dists[t, layer], config.top_k).tolist()
                        )
                    want = np.array(sorted(chosen), dtype=np.int64)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)
