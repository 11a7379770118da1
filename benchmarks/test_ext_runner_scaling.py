"""Extension: parallel runner scaling + store vectorization micro-bench.

Times the same 20-cell grid sweep (1 model x 1 dataset x 5 systems x
4 budgets) at ``jobs`` in {1, 2, 4} — ``jobs=1`` in-process, higher
levels through the process pool — and checks the CSV output is
byte-identical at every level: the runner's core guarantee.  Wall-clock
numbers land in ``benchmarks/BENCH_runner.json`` together with the
host's CPU count; the >= 1.8x speedup expectation at ``jobs=4`` only
applies when four cores actually exist, so the assertions are gated on
``cpus`` (a single-core container can demonstrate determinism but not
parallel speedup).

The second section micro-benchmarks the store's search paths against
naive references that re-normalize stored rows on every call: the
pre-normalized semantic search (Eq. 4), and a trajectory match (Eq. 5)
at every prefix 1..L, served by one incremental session, against a
full re-normalizing cosine per prefix.  It asserts the best scores agree
to 1e-6 and records the measured speedup.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
from _util import emit, run_once
from conftest import BENCH_CONFIG

from repro.core.matcher import IncrementalTrajectoryMatch
from repro.core.store import ExpertMapStore
from repro.experiments.common import SYSTEM_NAMES
from repro.experiments.grid import grid_to_csv, run_grid
from repro.experiments.runner import process_cache
from repro.moe.embeddings import cosine_similarity_matrix

JOBS_LEVELS = (1, 2, 4)
RUNNER_CONFIG = BENCH_CONFIG.with_(num_requests=20, num_test_requests=4)
GRID = dict(
    models=("mixtral-8x7b",),
    datasets=("lmsys-chat-1m",),
    systems=SYSTEM_NAMES,
    budgets_gb=(6.0, 12.0, 24.0, 48.0),
)
RESULT_PATH = Path(__file__).parent / "BENCH_runner.json"

MICRO_REPS = 30


def _naive_semantic(store, embeddings):
    """Pre-vectorization semantic path: normalize everything per call."""
    return cosine_similarity_matrix(
        np.atleast_2d(embeddings), store._embeddings[: len(store)]
    )


def _naive_trajectory(store, observed, num_layers):
    """Pre-vectorization trajectory path: flatten + normalize per call."""
    flat_new = observed[:, :num_layers, :].reshape(observed.shape[0], -1)
    flat_old = store._maps[: len(store), :num_layers, :].reshape(
        len(store), -1
    )
    return cosine_similarity_matrix(flat_new, flat_old)


def _session_every_prefix(store, observed):
    """Best trajectory score at every prefix 1..L: one incremental session."""
    session = IncrementalTrajectoryMatch(store, observed.shape[0])
    return np.stack(
        [
            session.observe_layer(observed[:, layer, :]).scores
            for layer in range(observed.shape[1])
        ]
    )


def _naive_every_prefix(store, observed):
    """Best trajectory score at every prefix 1..L, re-normalizing each."""
    return np.stack(
        [
            _naive_trajectory(store, observed, prefix).max(axis=1)
            for prefix in range(1, observed.shape[1] + 1)
        ]
    )


def _store_microbench(rng):
    """Measure the pre-normalized search path against the naive one."""
    num_layers, num_experts, dim, size, batch = 32, 8, 64, 256, 64
    store = ExpertMapStore(
        capacity=size,
        num_layers=num_layers,
        num_experts=num_experts,
        embedding_dim=dim,
    )
    for _ in range(size):
        store.add(
            rng.standard_normal(dim),
            rng.random((num_layers, num_experts)),
        )
    queries = rng.standard_normal((batch, dim))
    observed = rng.random((batch, num_layers, num_experts))

    fast_sem = store.semantic_scores(queries)
    fast_traj = _session_every_prefix(store, observed)
    naive_sem = _naive_semantic(store, queries)
    naive_traj = _naive_every_prefix(store, observed)
    max_diff = max(
        float(np.abs(fast_sem - naive_sem).max()),
        float(np.abs(fast_traj - naive_traj).max()),
    )
    assert max_diff < 1e-6

    start = time.perf_counter()
    for _ in range(MICRO_REPS):
        store.semantic_scores(queries)
        _session_every_prefix(store, observed)
    vectorized = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(MICRO_REPS):
        _naive_semantic(store, queries)
        _naive_every_prefix(store, observed)
    naive = time.perf_counter() - start

    return {
        "reps": MICRO_REPS,
        "store_size": size,
        "batch": batch,
        "naive_seconds": round(naive, 6),
        "vectorized_seconds": round(vectorized, 6),
        "speedup": round(naive / vectorized, 3) if vectorized else 0.0,
        "max_abs_diff": max_diff,
    }


def test_ext_runner_scaling(benchmark):
    def experiment():
        # Warm the shared world outside the timed region so every jobs
        # level starts from the same state (fork workers inherit it).
        process_cache().get(
            RUNNER_CONFIG.with_(
                model_name=GRID["models"][0], dataset=GRID["datasets"][0]
            )
        )
        wall: dict[int, float] = {}
        csvs: dict[int, str] = {}
        for jobs in JOBS_LEVELS:
            start = time.perf_counter()
            cells = run_grid(config=RUNNER_CONFIG, jobs=jobs, **GRID)
            wall[jobs] = time.perf_counter() - start
            csvs[jobs] = grid_to_csv(cells)
        micro = _store_microbench(np.random.default_rng(0))
        return wall, csvs, micro

    wall, csvs, micro = run_once(benchmark, experiment)

    identical = all(csvs[j] == csvs[1] for j in JOBS_LEVELS)
    cpus = len(os.sched_getaffinity(0))
    num_cells = len(GRID["systems"]) * len(GRID["budgets_gb"])
    result = {
        "benchmark": "runner_scaling",
        "cells": num_cells,
        "requests": RUNNER_CONFIG.num_requests,
        "cpus": cpus,
        "wall_seconds": {str(j): round(wall[j], 3) for j in JOBS_LEVELS},
        "speedup_vs_jobs1": {
            str(j): round(wall[1] / wall[j], 3) if wall[j] else 0.0
            for j in JOBS_LEVELS
            if j != 1
        },
        "identical_output": identical,
        "store_vectorization": micro,
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    lines = [
        f"cells={num_cells} requests={RUNNER_CONFIG.num_requests} "
        f"cpus={cpus}"
    ]
    lines += [
        f"jobs={j}: wall={wall[j]:7.2f}s "
        f"speedup={wall[1] / wall[j]:5.2f}x"
        for j in JOBS_LEVELS
    ]
    lines.append(f"identical_output={identical}")
    lines.append(
        f"store vectorization: {micro['speedup']:.2f}x over naive "
        f"(max diff {micro['max_abs_diff']:.2e})"
    )
    emit("ext_runner_scaling", lines)

    # Determinism is unconditional: parallel output must match sequential
    # byte for byte.
    assert identical
    # Speedup expectations only hold where the cores exist.
    if cpus >= 4:
        assert wall[1] / wall[4] >= 1.8
    elif cpus >= 2:
        assert wall[1] / wall[2] >= 1.3
    # Pre-normalized, incremental search must beat per-call normalization
    # of stored rows.
    assert micro["speedup"] >= 1.05
