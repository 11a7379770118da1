"""Synthetic prompt corpora shaped like the paper's two datasets.

The offloading policies see prompts only through (a) the semantic embedding,
(b) the routing trajectory, and (c) input/output lengths, so a corpus is
characterized by its topic-cluster mixture and its length distributions.

- *LMSYS-Chat-1M-like*: many short chat prompts with short answers, broad
  topic mixture (mild Zipf skew over clusters).
- *ShareGPT-like*: longer shared conversations with longer answers and a
  more concentrated topic mixture.

Output lengths are scaled down from real corpora (which average hundreds of
tokens) by default so simulated runs finish quickly; the scale is a profile
parameter and the relative structure (one prefill + many decode iterations)
is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigError
from repro.serving.request import Request


@dataclass(frozen=True)
class DatasetProfile:
    """Statistical description of one prompt corpus."""

    name: str
    num_clusters: int = 32
    zipf_alpha: float = 1.1
    """Cluster popularity skew (1.0 = mild, larger = more concentrated)."""

    cluster_range: tuple[int, int] | None = None
    """Half-open [lo, hi) topic range this corpus draws from; None = all.

    Distinct corpora cover different (partially overlapping) topic ranges,
    which is what makes cross-dataset transfer a real domain shift."""

    input_log_mean: float = 5.0
    input_log_sigma: float = 0.7
    input_min: int = 8
    input_max: int = 2048

    output_log_mean: float = 3.2
    output_log_sigma: float = 0.6
    output_min: int = 4
    output_max: int = 96

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range knobs."""
        if self.num_clusters < 1:
            raise ConfigError("num_clusters must be >= 1")
        if self.cluster_range is not None:
            lo, hi = self.cluster_range
            if not 0 <= lo < hi <= self.num_clusters:
                raise ConfigError(
                    f"cluster_range {self.cluster_range} outside "
                    f"[0, {self.num_clusters}]"
                )
        if self.input_min < 1 or self.input_max < self.input_min:
            raise ConfigError("invalid input length bounds")
        if self.output_min < 1 or self.output_max < self.output_min:
            raise ConfigError("invalid output length bounds")

    def effective_clusters(self) -> np.ndarray:
        """The topic ids this corpus actually draws from."""
        lo, hi = self.cluster_range or (0, self.num_clusters)
        return np.arange(lo, hi)

    def cluster_weights(self) -> np.ndarray:
        """Zipf weights over this corpus's topic range."""
        count = len(self.effective_clusters())
        ranks = np.arange(1, count + 1, dtype=np.float64)
        weights = ranks**-self.zipf_alpha
        return weights / weights.sum()

    def scaled(self, output_scale: float) -> "DatasetProfile":
        """Profile with output lengths scaled by ``output_scale``."""
        return replace(
            self,
            output_log_mean=self.output_log_mean + float(np.log(output_scale)),
            output_max=max(int(self.output_max * output_scale), self.output_min),
        )


LMSYS_LIKE = DatasetProfile(
    name="lmsys-chat-1m",
    zipf_alpha=1.0,
    cluster_range=(0, 24),  # broad chat topics
    input_log_mean=4.8,  # median prompt ~120 tokens
    input_log_sigma=0.8,
    output_log_mean=3.1,  # median output ~22 tokens (scaled for simulation)
    output_log_sigma=0.55,
)

SHAREGPT_LIKE = DatasetProfile(
    name="sharegpt",
    zipf_alpha=1.35,
    cluster_range=(8, 32),  # partially overlapping, more concentrated
    input_log_mean=5.6,  # median prompt ~270 tokens
    input_log_sigma=0.7,
    output_log_mean=3.5,  # median output ~33 tokens (scaled for simulation)
    output_log_sigma=0.6,
)

DATASET_PROFILES: dict[str, DatasetProfile] = {
    LMSYS_LIKE.name: LMSYS_LIKE,
    SHAREGPT_LIKE.name: SHAREGPT_LIKE,
}


def get_dataset_profile(name: str) -> DatasetProfile:
    """Look up a registered dataset profile by name."""
    try:
        return DATASET_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(DATASET_PROFILES))
        raise ConfigError(f"unknown dataset {name!r}; known: {known}") from None


def _bounded_lognormal(
    rng: np.random.Generator,
    log_mean: float,
    log_sigma: float,
    lo: int,
    hi: int,
    size: int,
) -> np.ndarray:
    draws = rng.lognormal(log_mean, log_sigma, size)
    return np.clip(np.round(draws), lo, hi).astype(np.int64)


def make_dataset(
    profile: DatasetProfile | str,
    size: int,
    seed: int = 0,
    start_id: int = 0,
) -> list[Request]:
    """Sample ``size`` requests from a dataset profile."""
    if isinstance(profile, str):
        profile = get_dataset_profile(profile)
    profile.validate()
    if size < 0:
        raise ConfigError("size must be >= 0")
    rng = np.random.default_rng(seed)
    clusters = rng.choice(
        profile.effective_clusters(), size=size, p=profile.cluster_weights()
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
    # One routing-seed call: the same values and generator state as
    # ``size`` scalar ``integers(2**31)`` draws.
    seeds = rng.integers(2**31, size=size)
    return [
        Request(
            request_id=start_id + i,
            cluster=cluster,
            input_tokens=input_tokens,
            output_tokens=output_tokens,
            seed=seed,
        )
        for i, (cluster, input_tokens, output_tokens, seed) in enumerate(
            zip(
                clusters.tolist(),
                inputs.tolist(),
                outputs.tolist(),
                seeds.tolist(),
            )
        )
    ]
