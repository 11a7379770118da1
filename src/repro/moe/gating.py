"""Synthetic gate networks with calibrated routing statistics.

A real MoE gate maps the attention output at each layer to a probability
distribution over that layer's experts.  The paper's measurements of real
checkpoints (its §2.3–2.4 and Figs. 3–4, 8) pin down the statistics that
matter for offloading research:

1. *Peaked iterations, balanced aggregates.*  Each single iteration routes
   with low entropy, but the load-balancing loss makes the aggregate over
   many iterations near-uniform.
2. *Layer-local continuity.*  Adjacent layers prefer nearby experts (the
   residual stream changes slowly), which is why distance-1 speculation
   works and decays with distance.
3. *Semantic structure.*  Prompts with similar semantics route through
   similar expert trajectories.

This module realizes those statistics with an explicit generative model:
each (cluster, phase) pair owns an *archetype* — per-layer primary/secondary
peak experts produced by a slow random walk over expert indices — and every
iteration samples Gumbel-perturbed archetype logits.  The walk's step
probability controls property 2; the cluster/phase structure controls
properties 1 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.moe.config import MoEModelConfig

#: Cap on how many per-token routing draws a prefill iteration simulates.
#: Beyond this many tokens the activated-expert union has saturated.
MAX_PREFILL_TOKEN_DRAWS = 48


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stable."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def top_k_indices(row: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries along the last axis, sorted
    ascending.

    ``row`` may be one row ``(J,)`` or any stack of rows (``(L, J)``,
    ``(draws, L, J)``); the result has the same leading shape with last
    axis ``min(k, J)``.  One ``argpartition`` plus one ``sort`` over the
    stack selects, row for row, exactly what a call per row selects: both
    run the same per-row algorithm along the last axis.
    """
    width = row.shape[-1]
    if k >= width:
        return np.broadcast_to(np.arange(width), row.shape).copy()
    part = np.argpartition(row, -k, axis=-1)[..., -k:]
    return np.sort(part, axis=-1)


class PhaseProcess:
    """Markov chain over routing phases across decode iterations.

    A generation starts in a prompt-determined phase and, at every decode
    iteration, stays with probability ``stay_prob`` or jumps to a uniformly
    random phase.  The drift is what makes request-level aggregation wash
    out iteration-level structure (paper Fig. 3c).
    """

    def __init__(
        self,
        num_phases: int,
        stay_prob: float,
        initial_phase: int,
        rng: np.random.Generator,
    ) -> None:
        if not 0 <= initial_phase < num_phases:
            raise ConfigError(
                f"initial_phase {initial_phase} out of range [0, {num_phases})"
            )
        self.num_phases = num_phases
        self.stay_prob = stay_prob
        self.phase = initial_phase
        self._rng = rng

    def advance(self) -> int:
        """Move to the next iteration's phase and return it."""
        if self.num_phases > 1 and self._rng.random() > self.stay_prob:
            self.phase = int(self._rng.integers(self.num_phases))
        return self.phase


@dataclass(frozen=True)
class SampledIteration:
    """Gate output of one inference iteration.

    ``distributions`` is the expert map row data: per-layer probability
    vectors, shape ``(L, J)``.  ``activated`` holds per-layer sorted arrays
    of activated expert indices (top-K for decode; a union over token draws
    for prefill).  ``logits`` are the sampled pre-softmax logits, used only
    by the speculative-prediction oracle that models baselines which peek at
    hidden states.
    """

    distributions: np.ndarray
    activated: tuple[np.ndarray, ...]
    logits: np.ndarray


class SyntheticGate:
    """Cluster/phase-conditioned routing-distribution generator."""

    def __init__(self, config: MoEModelConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        profile = config.routing
        self.num_clusters = profile.num_clusters
        self.num_phases = profile.phases_per_cluster
        # Layers below this index use the cluster-shared base archetype;
        # above it, the phase-specific archetype.  Early layers encode input
        # semantics (stable per cluster), later layers track the generation
        # phase — this split is what lets semantic search guide the initial
        # prefetch-distance window while trajectory search handles the rest.
        self.anchor_layers = max(2, config.num_layers // 4)
        self._archetypes = self._build_archetypes()
        # Projection from embedding residuals to per-prompt gate biases;
        # shared across clusters so cosine-close residuals map to close
        # biases.
        proj_rng = np.random.default_rng(seed + 10_007)
        self._prompt_projection = proj_rng.standard_normal(
            (config.embedding_dim, config.num_layers, config.experts_per_layer)
        )
        # Every engine of a world shares one model: no array may change.
        self._archetypes.flags.writeable = False
        self._prompt_projection.flags.writeable = False

    def _walk(self, rng: np.random.Generator, length: int) -> np.ndarray:
        """A slow random walk over expert indices (one peak per layer)."""
        j = self.config.experts_per_layer
        stay = self.config.routing.walk_stay_prob
        path = np.empty(length, dtype=np.int64)
        path[0] = rng.integers(j)
        for layer in range(1, length):
            if rng.random() < stay:
                path[layer] = path[layer - 1]
            else:
                path[layer] = rng.integers(j)
        return path

    def _width_factor(self) -> float:
        """Noise normalization for wide layers.

        I.i.d. Gumbel noise has an expected maximum growing with ln(J), so
        the same scale that gently perturbs an 8-expert layer reshuffles a
        60-expert layer completely.  Scaling by (ln(9)/ln(J+1))^1.5 keeps
        wide layers' lower top-K slots (which sit in the persistent-tail
        region, where near-ties abound) realistically stable, calibrated so
        the 8-expert Mixtral shape is unchanged.
        """
        j = self.config.experts_per_layer
        return float((np.log(9.0) / np.log(j + 1.0)) ** 1.5)

    def _logit_gain(self) -> float:
        """Sharpening gain for wide layers.

        Scaling every logit by a common factor preserves all orderings and
        flip probabilities (stability, speculation accuracy) while lowering
        the softmax entropy — wide real gates are sharper per-expert than a
        naive i.i.d. tail would suggest, which is what keeps iteration-level
        patterns low-entropy even at 60 experts (Fig. 3b's Qwen bars).
        """
        j = self.config.experts_per_layer
        return float((np.log(j + 1.0) / np.log(9.0)) ** 0.75)

    def _num_paths(self) -> int:
        """Peak walks per archetype: at least the gate's top-K."""
        return max(2, self.config.top_k)

    def _path_logit(self, rank: int) -> float:
        """Geometric peak heights: peak, second, then decaying."""
        peak = self.config.routing.peak_logit
        ratio = self.config.routing.second_logit / peak
        return peak * ratio**rank

    def _path_logits(self, paths: list[np.ndarray]) -> np.ndarray:
        """Turn ranked peak paths into per-layer logits ``(L, J)``."""
        cfg = self.config
        logits = np.zeros((cfg.num_layers, cfg.experts_per_layer))
        rows = np.arange(cfg.num_layers)
        for rank, path in enumerate(paths):
            logits[rows, path] += self._path_logit(rank)
        return logits

    def _build_archetypes(self) -> np.ndarray:
        """Archetype logits, shape ``(clusters, phases, L, J)``."""
        cfg = self.config
        num_paths = self._num_paths()
        tail_scale = cfg.routing.tail_logit_scale
        out = np.zeros(
            (
                self.num_clusters,
                self.num_phases,
                cfg.num_layers,
                cfg.experts_per_layer,
            )
        )
        root = np.random.default_rng(self.seed)
        for cluster in range(self.num_clusters):
            crng = np.random.default_rng(root.integers(2**63))
            base_paths = [
                self._walk(crng, cfg.num_layers) for _ in range(num_paths)
            ]
            base_tail = tail_scale * crng.standard_normal(
                (cfg.num_layers, cfg.experts_per_layer)
            )
            for phase in range(self.num_phases):
                paths = [p.copy() for p in base_paths]
                tail_logits = base_tail.copy()
                tail = cfg.num_layers - self.anchor_layers
                if tail > 0:
                    for path in paths:
                        path[self.anchor_layers :] = self._walk(crng, tail)
                    tail_logits[self.anchor_layers :] = (
                        tail_scale
                        * crng.standard_normal((tail, cfg.experts_per_layer))
                    )
                out[cluster, phase] = self._path_logits(paths) + tail_logits
        return out

    def archetype_logits(self, cluster: int, phase: int) -> np.ndarray:
        """Noise-free archetype logits for ``(cluster, phase)``: ``(L, J)``."""
        return self._archetypes[cluster, phase]

    def prompt_bias(self, residual: np.ndarray) -> np.ndarray:
        """Persistent per-prompt gate bias from an embedding residual.

        Unit-variance residual entries produce a bias with std
        ``prompt_deviation``; cosine-close residuals produce close biases,
        so semantic similarity predicts routing similarity.
        """
        residual = np.asarray(residual, dtype=np.float64)
        if residual.shape != (self.config.embedding_dim,):
            raise ConfigError(
                f"residual shape {residual.shape} != "
                f"({self.config.embedding_dim},)"
            )
        scale = self.config.routing.prompt_deviation / np.sqrt(
            self.config.embedding_dim
        )
        return scale * np.einsum(
            "h,hlj->lj", residual, self._prompt_projection
        )

    def _noisy_logits(
        self,
        cluster: int,
        phase: int,
        rng: np.random.Generator,
        prompt_bias: np.ndarray | None = None,
    ) -> np.ndarray:
        arch = self._archetypes[cluster, phase]
        scale = self.config.routing.iteration_noise * self._width_factor()
        noise = rng.gumbel(0.0, scale, arch.shape)
        logits = arch + noise
        if prompt_bias is not None:
            logits = logits + prompt_bias
        return self._logit_gain() * logits

    def sample_decode(
        self,
        cluster: int,
        phase: int,
        rng: np.random.Generator,
        prompt_bias: np.ndarray | None = None,
    ) -> SampledIteration:
        """One decode iteration: one token's routing through all layers."""
        logits = self._noisy_logits(cluster, phase, rng, prompt_bias)
        dist = softmax_rows(logits)
        activated = tuple(top_k_indices(dist, self.config.top_k))
        return SampledIteration(dist, activated, logits)

    def sample_prefill(
        self,
        cluster: int,
        phase: int,
        num_tokens: int,
        rng: np.random.Generator,
        prompt_bias: np.ndarray | None = None,
    ) -> SampledIteration:
        """The prefill iteration: all prompt tokens routed in parallel.

        The activated set per layer is the union of per-token top-K choices,
        so long prompts touch most experts — the reason prefill dominates
        on-demand loading cost in offloaded serving.
        """
        if num_tokens < 1:
            raise ConfigError("prefill needs at least one token")
        draws = min(num_tokens, MAX_PREFILL_TOKEN_DRAWS)
        arch = self._archetypes[cluster, phase]
        if prompt_bias is not None:
            arch = arch + prompt_bias
        noise_scale = (
            self.config.routing.iteration_noise * self._width_factor()
        )
        per_token = self._logit_gain() * (
            arch[None, :, :]
            + rng.gumbel(0.0, noise_scale, (draws, *arch.shape))
        )
        dists = softmax_rows(per_token)
        mean_dist = dists.mean(axis=0)
        mean_logits = per_token.mean(axis=0)
        # Every draw's top-K at once; a layer's union is the set bits of
        # its row of the (L, J) mask, which flatnonzero reads back sorted
        # and unique.
        chosen = top_k_indices(dists, self.config.top_k)
        mask = np.zeros(arch.shape, dtype=bool)
        mask[np.arange(arch.shape[0])[None, :, None], chosen] = True
        activated = tuple(np.flatnonzero(row) for row in mask)
        return SampledIteration(mean_dist, activated, mean_logits)

    def speculate(
        self,
        iteration_logits: np.ndarray,
        target_layer: int,
        distance: int,
        rng: np.random.Generator,
        noise_multiplier: float = 1.0,
    ) -> np.ndarray:
        """Model a hidden-state speculative predictor for ``target_layer``.

        Baselines like Mixtral-Offloading and ProMoE apply future layers'
        gates to the current hidden state.  Accuracy is high one layer ahead
        and decays with distance; we model this as the true sampled logits
        of the target layer corrupted by Gumbel noise that grows linearly
        with the prediction distance.
        """
        if distance < 1:
            raise ConfigError("speculation distance must be >= 1")
        if noise_multiplier < 0:
            raise ConfigError("noise_multiplier must be >= 0")
        # Iteration logits already carry the width gain; the speculation
        # noise must scale with it to keep flip probabilities gain-free.
        noise_scale = (
            self.config.routing.speculation_noise
            * distance
            * noise_multiplier
            * self._width_factor()
            * self._logit_gain()
        )
        noisy = iteration_logits[target_layer] + rng.gumbel(
            0.0, noise_scale, self.config.experts_per_layer
        )
        return softmax_rows(noisy[None, :])[0]
