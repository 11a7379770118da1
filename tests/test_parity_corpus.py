"""The parity corpus: recorded scalar-core answers the one core must keep.

``tests/golden/parity_corpus.json`` holds, per fixed cell, the report
hash plus hits, misses and iterations the scalar reference core gave
(see :mod:`tests.golden.parity`).  This suite checks that the file lists
exactly the defined cells, that the core reproduces every tiny-world
cell (``tests/test_engine_parity.py`` checks the default-model ones),
and that the corpus has teeth: every engine mutant moves at least one
cell.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.validate.mutants import MUTANTS

from tests.golden.parity import load_parity_corpus, parity_cells, run_cell

CELLS = parity_cells()
TINY_CELLS = [cell for cell in CELLS if cell.world == "tiny"]


@pytest.fixture(scope="module")
def corpus() -> dict[str, dict]:
    return load_parity_corpus()


def test_corpus_lists_every_cell(corpus):
    ids = [cell.id for cell in CELLS]
    assert len(set(ids)) == len(ids)
    assert sorted(corpus) == sorted(ids)


@pytest.mark.parametrize("cell", TINY_CELLS, ids=lambda c: c.id)
def test_core_reproduces_cell(cell, corpus):
    assert run_cell(cell) == corpus[cell.id], f"{cell.id}: the core drifted"


def _mutated(cell, mutant) -> dict:
    try:
        return run_cell(cell, mutate=mutant.apply)
    except ReproError as error:
        # The defect broke the serve outright: no answer at all.
        return {"error": type(error).__name__}


@pytest.mark.parametrize(
    "mutant",
    [m for m in MUTANTS if m.target == "engine"],
    ids=lambda m: m.name,
)
def test_mutant_moves_a_cell(mutant, corpus):
    """Each engine mutant changes some cell's recorded answer.

    Cells run cheapest first and the search stops at the first one that
    moves; cluster cells take no engine mutant.
    """
    bare = sorted(
        (cell for cell in CELLS if not cell.replicas),
        key=lambda cell: cell.world != "tiny",
    )
    moved = next(
        (cell.id for cell in bare if _mutated(cell, mutant) != corpus[cell.id]),
        None,
    )
    assert moved is not None, f"mutant {mutant.name!r} moved no corpus cell"
