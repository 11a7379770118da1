"""Repository hygiene: no build artifacts in the tracked tree.

``__pycache__`` directories are interpreter droppings; one once ended up
sitting in ``benchmarks/`` and shadowing review diffs.  The tracked file
list is the contract — anything a clone receives must be source, not
bytecode.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tracked_files() -> list[str]:
    result = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        pytest.skip("not a git checkout")
    return result.stdout.splitlines()


def test_no_pycache_is_git_tracked():
    offenders = [
        path
        for path in _tracked_files()
        if "__pycache__" in Path(path).parts
    ]
    assert not offenders, (
        "bytecode caches are tracked — `git rm -r --cached` them: "
        + ", ".join(offenders)
    )


def test_no_compiled_bytecode_is_git_tracked():
    offenders = [
        path
        for path in _tracked_files()
        if path.endswith((".pyc", ".pyo"))
    ]
    assert not offenders, "compiled bytecode is tracked: " + ", ".join(
        offenders
    )


def test_perf_trajectory_rows_carry_both_sides():
    """``BENCH_perf.json`` is the committed perf trajectory: every row is
    a same-host parent/change pair keyed by both revisions, and every
    measurement in it has both sides."""
    import json

    rows = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())["rows"]
    assert rows
    for row in rows:
        assert row["parent_rev"] and row["change_rev"], row.get("change")
        assert row["host"]["nproc"] >= 1
        for section in ("untraced", "traced", "report_sha256"):
            assert row[section], section
            for workload, sides in row[section].items():
                assert set(sides) >= {"parent", "change"}, (section, workload)
        for workload, sides in row["untraced"].items():
            for side in ("parent", "change"):
                last = sides[side]
                assert last["correct"] is True, (workload, side)
                assert "sim_req_per_s" in last["metrics"], (workload, side)
