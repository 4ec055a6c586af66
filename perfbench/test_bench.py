"""The benchmark's own checks: traced counts repeat exactly for a seed, and
the seed reaches the inputs.

    python3 -m pytest -q perfbench/test_bench.py

Each case runs ``perfbench/run.py --trace 1`` in a fresh process, so the
whole file takes several minutes.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog_analyze", "extension_ladder", "dense_cohomology")


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    assert record["result"] == result
    return record


first_traced = functools.cache(traced)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_counts_repeat_for_a_seed(workload):
    first, second = first_traced(workload, 1), traced(workload, 1)
    assert first["counts"] == second["counts"]
    for name, metric in first["result"]["metrics"].items():
        if metric["unit"] == "count":
            assert metric["value"] == second["result"]["metrics"][name]["value"], name


def test_seed_reaches_dense_inputs():
    nnz = "cohomology.sparse_rank.nnz"
    one, two = first_traced("dense_cohomology", 1), traced("dense_cohomology", 2)
    assert one["counts"][nnz] != two["counts"][nnz]


def test_refuses_an_empty_checkout(tmp_path):
    """Without lsakit sources the benchmark fails and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for p in HERE.glob("*.py"):
        (tmp_path / "perfbench" / p.name).write_text(p.read_text())
    (tmp_path / "perfbench" / "reference.json").write_text((HERE / "reference.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog_analyze",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
