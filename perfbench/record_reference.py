"""Record the reference answers the benchmark checks against.

Run from the repository root, on the commit whose answers become the
reference:

    python3 perfbench/record_reference.py > perfbench/reference.json

The answers do not depend on the workload seed: catalog documents and ladder
algebras are fixed, and a dense copy must reproduce the invariants of its
source algebra, which are recorded here once.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.environ["LSAKIT_PURE_RATIONALS"] = "1"
sys.path.insert(0, str(ROOT / "src"))

import lsakit  # noqa: E402

from workloads import CatalogAnalyze, DenseCohomology, ExtensionLadder, _rows  # noqa: E402


def catalog() -> dict:
    wl = CatalogAnalyze()
    wl.setup(lsakit, ROOT, 0)
    out = {}
    for item in wl.items:
        code, text = wl.run(item)
        assert code == 0, item[0]
        out[item[0]] = json.loads(text)
    return dict(sorted(out.items()))


def ladder() -> dict:
    wl = ExtensionLadder()
    wl.setup(lsakit, ROOT, 0)
    out = {}
    for item in wl.items:
        tower, verdict = wl.run(item)
        out[item[0]] = {
            "trace_subspace": _rows(tower.T_A),
            "koszul_radical": _rows(tower.koszul.subspace),
            "trace_form_radical": _rows(tower.trace_form_rad),
            "complete": tower.complete,
            "lie": [tower.lie.nilpotent, tower.lie.solvable],
            "solvable_radical": {"basis": _rows(tower.sol_rad), "status": tower.sol_status.value},
            "nil_radical": {"basis": _rows(tower.nil_rad), "status": tower.nil_status.value},
            "verdict": verdict.verdict.value,
        }
    return dict(sorted(out.items()))


def dense_sources() -> dict:
    out = {}
    for name, A in lsakit.simplicity.catalog_lsas().items():
        if A.dim not in DenseCohomology.COPIES:
            continue
        ref = {"derivations": lsakit.derivation_space(A).dim}
        for p in (1, 2, 3):
            d = lsakit.lsa_cohomology(A, p)
            ref[f"H{p}"] = [d.dim_cochains, d.dim_cocycles, d.dim_coboundaries, d.dim_cohomology]
        out[name] = ref
    return dict(sorted(out.items()))


if __name__ == "__main__":
    json.dump(
        {
            "catalog_analyze": catalog(),
            "extension_ladder": ladder(),
            "dense_cohomology": dense_sources(),
        },
        sys.stdout,
        indent=1,
    )
    print()
