"""The parity corpus: the serving core's answers on fixed cells, pinned.

Each :class:`ParityCell` is one seeded serve — a bare engine or a small
cluster — with a readable id.  ``parity_corpus.json`` stores, per cell,
the sha256 of the canonical report JSON (``report_to_json``, or
``cluster_report_to_json`` for cluster cells) plus its ``hits``,
``misses`` and ``iterations``, so a failing cell says what moved.

The cells cover both default models at batch 1 and 8 and prefetch
distance 1 and 3; batch 32 on the tiny world; the lru, lfu and fmoe
eviction algorithms under the default budget and a pressured one of two
experts per GPU; transfer-fault schedules; arrival traces served with
``respect_arrivals``; 1–4-replica clusters under every router, and 2
replicas on a shared store; and every system :func:`make_policy` builds.

The answers are the scalar reference core's: first recorded with the
engine's former ``columnar=False`` core, now reproduced by the test-local
reference (:mod:`tests._reference_core`).  Regenerate with::

    PYTHONPATH=src python -m tests.golden.parity

which records every cell on the reference and fails, writing nothing,
unless the serving core gives the same answer.  Regenerating must leave
the file byte for byte as it is.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
PARITY_CORPUS_PATH = GOLDEN_DIR / "parity_corpus.json"

#: Default-model sizing: the shapes the live parity suite served.
DEFAULT_MODEL_REQUESTS = 16
DEFAULT_MODEL_TEST_REQUESTS = 8
PARITY_SEED = 0

#: ``world`` name → (model, dataset) for the two default-model worlds.
DEFAULT_WORLDS = {
    "mixtral": ("mixtral-8x7b", "lmsys-chat-1m"),
    "qwen": ("qwen1.5-moe", "sharegpt"),
}


@dataclass(frozen=True)
class ParityCell:
    """One fixed serve of the corpus."""

    id: str
    world: str = "tiny"
    """``"tiny"`` (``tests._cluster_testkit.tiny_world(seed)``) or a key
    of :data:`DEFAULT_WORLDS`."""

    seed: int = 0
    """Tiny-world seed; also seeds the cell's trace and fault schedule."""

    system: str = "fmoe"
    batch_size: int = 1
    prefetch_distance: int = 3
    eviction: str = "fmoe"
    """fMoE's cache algorithm (``FMoEPolicy.eviction_algorithm``)."""

    pressured: bool = False
    """Serve under a budget of two experts per GPU."""

    faults: tuple[float, float, float] | None = None
    """(PCIe degradation, transfer failure, straggler) probabilities."""

    trace: tuple[int, float] | None = None
    """``arrival_trace(world, n, gap, seed)`` in place of the world's
    test requests."""

    respect_arrivals: bool = False
    replicas: int = 0
    """0 serves one bare engine; >= 1 runs ``run_cluster``."""

    router: str = "round-robin"
    shared_store: bool = False


def _default_cells() -> list[ParityCell]:
    """Both default models at batch 1 and 8, distance 1 and 3: batch 1
    at distance 1 and batch 8 at distance 3 (the golden reports pin
    batch 1 at distance 3)."""
    return [
        ParityCell(
            id=f"{name}-b{batch}-d{distance}",
            world=name,
            batch_size=batch,
            prefetch_distance=distance,
        )
        for name in DEFAULT_WORLDS
        for batch, distance in ((1, 1), (8, 3))
    ]


def _tiny_shape_cells() -> list[ParityCell]:
    return [
        ParityCell(
            id=f"tiny{seed}-b{batch}-d{distance}",
            seed=seed,
            batch_size=batch,
            prefetch_distance=distance,
        )
        for seed in range(4)
        for batch, distance in ((8, 1), (4, 2))
    ]


def _batch32_cells() -> list[ParityCell]:
    return [
        ParityCell(
            id=f"tiny{seed}-b32-n32-gap{gap}",
            seed=seed,
            batch_size=32,
            trace=(32, gap),
            respect_arrivals=respect,
        )
        for seed, gap, respect in (
            (0, 0.0, False),
            (1, 0.0, False),
            (2, 0.05, True),
            (3, 0.05, True),
        )
    ]


def _eviction_cells() -> list[ParityCell]:
    """lru, lfu and fmoe eviction under the default and pressured budgets.

    The tiny world's default budget holds one expert per GPU, which leaves
    no eviction choice (the three algorithms coincide there); the
    pressured budget of two per GPU tells them apart.
    """
    return [
        ParityCell(
            id=f"tiny{seed}-evict-{eviction}-{label}",
            seed=seed,
            eviction=eviction,
            pressured=pressured,
            batch_size=batch,
        )
        for seed, batch in ((0, 1), (1, 4), (2, 8))
        for eviction in ("lru", "lfu", "fmoe")
        for label, pressured in (("default", False), ("pressured", True))
    ]


def _fault_cells() -> list[ParityCell]:
    """The faulted-parity grid: every probability combination, seeds
    cycling through the four tiny worlds."""
    grid = [
        (degradation, failure, straggler)
        for degradation in (0.0, 0.5, 1.0)
        for failure in (0.0, 0.05)
        for straggler in (0.0, 0.5)
    ]
    return [
        ParityCell(
            id=f"tiny{i % 4}-faults-pcie{d}-fail{f}-strag{s}",
            seed=i % 4,
            faults=(d, f, s),
        )
        for i, (d, f, s) in enumerate(grid)
    ]


def _arrival_cells() -> list[ParityCell]:
    shapes = [
        (0, 1, 0.0),
        (1, 3, 0.2),
        (2, 5, 1.0),
        (3, 8, 0.0),
        (0, 8, 0.2),
        (1, 6, 1.0),
    ]
    return [
        ParityCell(
            id=f"tiny{seed}-arrivals-n{n}-gap{gap}",
            seed=seed,
            trace=(n, gap),
            respect_arrivals=True,
        )
        for seed, n, gap in shapes
    ]


def _cluster_cells() -> list[ParityCell]:
    from repro.cluster.config import ROUTER_NAMES

    # Each router once, on 1, 2, 3 and 4 replicas.
    cells = [
        ParityCell(
            id=f"tiny{r}-cluster-r{r + 1}-{router}",
            seed=r,
            trace=(8, (0.0, 0.2, 1.0)[r % 3]),
            replicas=r + 1,
            router=router,
        )
        for r, router in enumerate(ROUTER_NAMES)
    ]
    cells += [
        ParityCell(
            id=f"tiny{seed}-cluster-r2-shared-{router}",
            seed=seed,
            trace=(8, 0.2),
            replicas=2,
            router=router,
            shared_store=True,
        )
        for seed, router in ((0, "round-robin"), (1, "semantic-affinity"))
    ]
    return cells


def _system_cells() -> list[ParityCell]:
    from repro.experiments.common import POLICY_NAMES

    return [
        ParityCell(id=f"tiny0-system-{system}", system=system)
        for system in POLICY_NAMES
    ]


def parity_cells() -> tuple[ParityCell, ...]:
    """Every corpus cell, in a fixed order (cheap tiny cells first)."""
    return tuple(
        _eviction_cells()
        + _tiny_shape_cells()
        + _batch32_cells()
        + _fault_cells()
        + _arrival_cells()
        + _cluster_cells()
        + _system_cells()
        + _default_cells()
    )


@functools.lru_cache(maxsize=None)
def _base_world(name: str, seed: int):
    if name == "tiny":
        from tests._cluster_testkit import tiny_world

        return tiny_world(seed)
    from repro.experiments.common import ExperimentConfig, build_world

    model, dataset = DEFAULT_WORLDS[name]
    return build_world(
        ExperimentConfig(
            model_name=model,
            dataset=dataset,
            num_requests=DEFAULT_MODEL_REQUESTS,
            num_test_requests=DEFAULT_MODEL_TEST_REQUESTS,
            seed=PARITY_SEED,
        )
    )


def cell_world(cell: ParityCell):
    """The cell's world, configured for its batch and prefetch distance."""
    world = _base_world(cell.world, cell.seed)
    return dataclasses.replace(
        world,
        config=world.config.with_(
            batch_size=cell.batch_size,
            prefetch_distance=cell.prefetch_distance,
        ),
    )


def _digest(text: str, report) -> dict:
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "hits": report.hits,
        "misses": report.misses,
        "iterations": report.iterations,
    }


def run_cell(cell: ParityCell, mutate=None) -> dict:
    """Serve one cell on the current core; return its corpus entry.

    Bare cells serve through ``run_system``; ``mutate`` (bare cells only)
    is applied to the freshly built engine after the cell's own setup,
    as ``run_system`` applies it.
    """
    from repro.cluster import ClusterSpec, run_cluster
    from repro.cluster.metrics import cluster_report_to_json
    from repro.experiments.common import run_system
    from repro.serving.export import report_to_json
    from repro.serving.faults import FaultConfig, FaultSchedule
    from tests._cluster_testkit import arrival_trace

    world = cell_world(cell)
    requests = None
    if cell.trace is not None:
        n, gap = cell.trace
        requests = arrival_trace(world, n=n, gap=gap, seed=cell.seed)
    if cell.replicas:
        if mutate is not None:
            raise ValueError(f"{cell.id}: cluster cells take no mutant")
        report = run_cluster(
            world,
            cell.system,
            ClusterSpec(
                replicas=cell.replicas,
                router=cell.router,
                shared_store=cell.shared_store,
            ),
            requests=requests,
        )
        return _digest(cluster_report_to_json(report), report.aggregate)
    faults = None
    if cell.faults is not None:
        degradation, failure, straggler = cell.faults
        faults = FaultSchedule(
            FaultConfig(
                seed=cell.seed,
                pcie_degradation_prob=degradation,
                transfer_failure_prob=failure,
                straggler_prob=straggler,
            )
        )
    budget = None
    if cell.pressured:
        budget = (
            2
            * world.config.hardware.num_gpus
            * world.model_config.expert_bytes
        )

    def setup(engine) -> None:
        if cell.eviction != "fmoe":
            # ``FMoEPolicy`` reads its algorithm at every call, never at
            # attach, so setting it here equals constructing with it.
            engine.policy.eviction_algorithm = cell.eviction
        if mutate is not None:
            mutate(engine)

    report = run_system(
        world,
        cell.system,
        requests=requests,
        respect_arrivals=cell.respect_arrivals,
        cache_budget_bytes=budget,
        faults=faults,
        mutate=setup,
    )
    return _digest(report_to_json(report), report)


def load_parity_corpus() -> dict[str, dict]:
    """The checked-in corpus: cell id → recorded entry."""
    return json.loads(PARITY_CORPUS_PATH.read_text())["cells"]


def regenerate() -> None:
    """Record every cell on the reference core and rewrite the corpus.

    Fails (writing nothing) when any cell's serving-core answer differs.
    """
    from tests._reference_core import reference_core

    cells = parity_cells()
    ids = [cell.id for cell in cells]
    assert len(set(ids)) == len(ids), "duplicate parity cell ids"
    recorded: dict[str, dict] = {}
    for cell in cells:
        with reference_core():
            entry = run_cell(cell)
        core = run_cell(cell)
        if core != entry:
            raise AssertionError(
                f"{cell.id}: serving core {core} != reference {entry}"
            )
        recorded[cell.id] = entry
    PARITY_CORPUS_PATH.write_text(
        json.dumps({"cells": recorded}, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {PARITY_CORPUS_PATH} ({len(recorded)} cells)")


if __name__ == "__main__":
    regenerate()
