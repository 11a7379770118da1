"""The §3.3 offloading formulation: objective, bounds, and reference solvers.

The paper formulates expert offloading as an ILP minimizing total on-demand
loading latency T = T_e · Σ misses under a cache-capacity constraint, notes
it is NP-hard, and justifies fMoE's heuristic design.  This module makes
that formulation executable:

- :func:`activation_sequence` flattens profiled traces into the access
  sequence the ILP is defined over;
- :func:`evaluate_cache_schedule` counts misses for classic online
  policies (LRU / LFU / Belady) on that sequence;
- :func:`belady_min_misses` is the clairvoyant hindsight bound;
- :func:`lp_lower_bound` solves the LP relaxation with scipy (HiGHS) for
  small instances, certifying how close Belady and the heuristics get;
- :func:`ondemand_loading_latency` turns misses into the paper's T.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import lil_matrix

from repro.errors import ConfigError
from repro.types import ExpertId
from repro.workloads.profiler import RequestTrace


def activation_sequence(
    traces: Sequence[RequestTrace],
) -> list[list[ExpertId]]:
    """Per-(iteration, layer) groups of activated experts, in serve order."""
    sequence: list[list[ExpertId]] = []
    for trace in traces:
        for activated in trace.iteration_activated:
            for layer, experts in enumerate(activated):
                sequence.append(
                    [ExpertId(layer, int(j)) for j in experts]
                )
    return sequence


def ondemand_loading_latency(misses: int, expert_load_seconds: float) -> float:
    """The paper's objective T = T_e · Σ misses."""
    if misses < 0:
        raise ConfigError("misses must be >= 0")
    if expert_load_seconds < 0:
        raise ConfigError("expert_load_seconds must be >= 0")
    return misses * expert_load_seconds


def _flatten(sequence: Sequence[Sequence[ExpertId]]) -> list[ExpertId]:
    return [e for group in sequence for e in group]


def belady_min_misses(
    sequence: Sequence[Sequence[ExpertId]], capacity_experts: int
) -> int:
    """Clairvoyant (Belady/MIN) miss count with expert-granular caching."""
    if capacity_experts < 1:
        raise ConfigError("capacity must be >= 1")
    accesses = _flatten(sequence)
    # Precompute, for each access position, the next position the same
    # expert is used.
    next_use = [len(accesses)] * len(accesses)
    last_seen: dict[ExpertId, int] = {}
    for i in range(len(accesses) - 1, -1, -1):
        expert = accesses[i]
        next_use[i] = last_seen.get(expert, len(accesses))
        last_seen[expert] = i
    cache: dict[ExpertId, int] = {}  # expert -> its next use position
    misses = 0
    for i, expert in enumerate(accesses):
        if expert in cache:
            cache[expert] = next_use[i]
            continue
        misses += 1
        if len(cache) >= capacity_experts:
            victim = max(cache, key=lambda e: cache[e])
            del cache[victim]
        cache[expert] = next_use[i]
    return misses


def evaluate_cache_schedule(
    sequence: Sequence[Sequence[ExpertId]],
    capacity_experts: int,
    policy: str = "lru",
) -> int:
    """Miss count of a classic replacement policy over the sequence."""
    if capacity_experts < 1:
        raise ConfigError("capacity must be >= 1")
    if policy == "belady":
        return belady_min_misses(sequence, capacity_experts)
    if policy not in ("lru", "lfu"):
        raise ConfigError("policy must be 'lru', 'lfu', or 'belady'")
    accesses = _flatten(sequence)
    cache: set[ExpertId] = set()
    last_use: dict[ExpertId, int] = {}
    freq: dict[ExpertId, int] = defaultdict(int)
    misses = 0
    for i, expert in enumerate(accesses):
        freq[expert] += 1
        if expert not in cache:
            misses += 1
            if len(cache) >= capacity_experts:
                if policy == "lru":
                    victim = min(cache, key=lambda e: last_use.get(e, -1))
                else:
                    victim = min(cache, key=lambda e: freq[e])
                cache.discard(victim)
            cache.add(expert)
        last_use[expert] = i
    return misses


def lp_lower_bound(
    sequence: Sequence[Sequence[ExpertId]],
    capacity_experts: int,
    max_steps: int = 256,
) -> float:
    """LP relaxation of the §3.3 ILP (fractional caching lower bound).

    Variables: x[t, e] ∈ [0, 1] — fraction of expert e resident after step
    t; y[t, e] ≥ x[t, e] − x[t−1, e] — loads.  Minimize Σ y subject to
    x[t, e] = 1 for activated experts and Σ_e x[t, e] ≤ capacity.  The
    relaxed optimum lower-bounds the integral (true) minimum miss count.
    Only intended for small instances; raises if the sequence is too long.
    """
    if capacity_experts < 1:
        raise ConfigError("capacity must be >= 1")
    steps = list(sequence)
    if len(steps) > max_steps:
        raise ConfigError(
            f"instance too large for the LP bound ({len(steps)} steps "
            f"> {max_steps}); pass fewer traces"
        )
    experts = sorted({e for group in steps for e in group})
    index = {e: k for k, e in enumerate(experts)}
    num_e = len(experts)
    num_t = len(steps)
    if num_e == 0:
        return 0.0
    n_x = num_t * num_e
    n_y = num_t * num_e

    def xi(t: int, k: int) -> int:
        return t * num_e + k

    def yi(t: int, k: int) -> int:
        return n_x + t * num_e + k

    cost = np.zeros(n_x + n_y)
    cost[n_x:] = 1.0

    # Inequalities A_ub @ v <= b_ub.
    rows = num_t + num_t * num_e  # capacity rows + load-link rows
    a_ub = lil_matrix((rows, n_x + n_y))
    b_ub = np.zeros(rows)
    r = 0
    for t in range(num_t):
        for k in range(num_e):
            a_ub[r, xi(t, k)] = 1.0
        b_ub[r] = float(capacity_experts)
        r += 1
    for t in range(num_t):
        for k in range(num_e):
            # x[t] - x[t-1] - y[t] <= 0
            a_ub[r, xi(t, k)] = 1.0
            if t > 0:
                a_ub[r, xi(t - 1, k)] = -1.0
            a_ub[r, yi(t, k)] = -1.0
            b_ub[r] = 0.0
            r += 1

    bounds = [(0.0, 1.0)] * n_x + [(0.0, None)] * n_y
    # Activated experts must be fully resident at their step.
    for t, group in enumerate(steps):
        for e in group:
            bounds[xi(t, index[e])] = (1.0, 1.0)

    result = linprog(
        cost,
        A_ub=a_ub.tocsr(),
        b_ub=b_ub,
        bounds=bounds,
        method="highs",
    )
    if not result.success:  # pragma: no cover - solver failure
        raise RuntimeError(f"LP solve failed: {result.message}")
    return float(result.fun)
