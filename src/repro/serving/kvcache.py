"""KV-cache memory accounting.

Expert weights are not the only GPU-memory consumer during MoE serving:
each request's key-value cache grows by one entry per layer per generated
token.  The tracker below accounts KV bytes for the active batch so runs
can report peak KV pressure and experiments can derive how much GPU memory
is actually left for the expert cache (the budget the paper's Fig. 11
sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, SimulationError
from repro.moe.config import MoEModelConfig


def kv_bytes_per_token(config: MoEModelConfig) -> int:
    """KV bytes one token occupies: K and V vectors at every layer."""
    return 2 * config.num_layers * config.hidden_size * config.dtype_bytes


def request_kv_bytes(config: MoEModelConfig, total_tokens: int) -> int:
    """KV footprint of one request holding ``total_tokens`` of context."""
    if total_tokens < 0:
        raise ConfigError("total_tokens must be >= 0")
    return total_tokens * kv_bytes_per_token(config)


@dataclass
class _Entry:
    tokens: int


class KVCacheTracker:
    """Tracks the live KV footprint of in-flight requests."""

    def __init__(self, config: MoEModelConfig) -> None:
        self.config = config
        self._entries: dict[int, _Entry] = {}
        self.peak_bytes = 0

    def admit(self, request_id: int, prompt_tokens: int) -> None:
        """Register a request at prefill with its prompt context."""
        if request_id in self._entries:
            raise SimulationError(f"request {request_id} already admitted")
        if prompt_tokens < 1:
            raise ConfigError("prompt_tokens must be >= 1")
        self._entries[request_id] = _Entry(tokens=prompt_tokens)
        self.peak_bytes = max(self.peak_bytes, self.current_bytes())

    def append_token(self, request_id: int) -> None:
        """Grow a request's context by one generated token."""
        try:
            self._entries[request_id].tokens += 1
        except KeyError:
            raise SimulationError(
                f"request {request_id} not admitted"
            ) from None
        self.peak_bytes = max(self.peak_bytes, self.current_bytes())

    def release(self, request_id: int) -> None:
        """Free a finished request's KV cache."""
        if self._entries.pop(request_id, None) is None:
            raise SimulationError(f"request {request_id} not admitted")

    def tokens_of(self, request_id: int) -> int:
        """Current context length of an in-flight request."""
        try:
            return self._entries[request_id].tokens
        except KeyError:
            raise SimulationError(
                f"request {request_id} not admitted"
            ) from None

    def current_bytes(self) -> int:
        """Live KV bytes across all in-flight requests."""
        per_token = kv_bytes_per_token(self.config)
        return per_token * sum(e.tokens for e in self._entries.values())


def expert_budget_after_kv(
    config: MoEModelConfig,
    total_gpu_bytes: int,
    peak_kv_bytes: int,
    workspace_fraction: float = 0.05,
) -> int:
    """GPU bytes left for the expert cache after weights, KV, workspace."""
    if not 0.0 <= workspace_fraction < 1.0:
        raise ConfigError("workspace_fraction must be in [0, 1)")
    workspace = int(total_gpu_bytes * workspace_fraction)
    remaining = (
        total_gpu_bytes - config.non_expert_bytes - peak_kv_bytes - workspace
    )
    return max(remaining, 0)
