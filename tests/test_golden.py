"""``lsakit --json analyze`` and ``simple`` output, byte for byte, against
recorded reports.

The files under ``tests/golden/analyze/`` were recorded before the
per-algebra memo existed: ``<stem>.json`` with the default flags for every
catalog document, and ``<stem>.seed7-samples4.json`` with ``--seed 7
--samples 4`` for two documents, whose reports differ from the default ones
in sample-dependent fields.  In a seeded run the report's radicals use 4
samples while the fingerprint uses the default 32.  The fingerprint reads only
dimensions, which agree for both sample counts on every catalog document, so
a memo key that dropped the sample count would go unseen here; the keys are
checked directly in ``test_memo.py``.

The files under ``tests/golden/simple/`` are the ``--json simple`` reports of
the 13 catalog LSA documents, recorded before the subspace closure moved into
``Subspace.spin``.  Unlike the analyze reports they carry the meataxe
certificate (element, factor and nullity) and the NotSimple witness basis.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from lsakit import cli
from lsakit.serialize import parse_document

CATALOG = Path(cli.__file__).resolve().parent / "catalog"
GOLDEN = Path(__file__).resolve().parent / "golden" / "analyze"
GOLDEN_SIMPLE = GOLDEN.parent / "simple"
LSA_STEMS = [
    p.stem
    for p in sorted(CATALOG.glob("*.alg"))
    if parse_document(p.read_text(encoding="utf-8")).kind == "lsa"
]

CASES = [(p.stem, ()) for p in sorted(CATALOG.glob("*.alg"))] + [
    (stem, ("--seed", "7", "--samples", "4")) for stem in ("a2", "strict_upper_3")
]


def _golden_name(stem: str, flags: tuple) -> str:
    return f"{stem}.seed7-samples4.json" if flags else f"{stem}.json"


def test_every_catalog_document_has_a_golden_report():
    assert len(CASES) == 18
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(
        _golden_name(stem, flags) for stem, flags in CASES
    )


@pytest.mark.parametrize(
    "stem,flags", CASES, ids=[_golden_name(stem, flags) for stem, flags in CASES]
)
def test_analyze_json_is_byte_identical(stem, flags, capsys):
    code = cli.main([*flags, "--json", "analyze", str(CATALOG / f"{stem}.alg")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / _golden_name(stem, flags)).read_text(encoding="utf-8")


def test_every_catalog_lsa_has_a_golden_simple_report():
    assert len(LSA_STEMS) == 13
    assert sorted(p.stem for p in GOLDEN_SIMPLE.glob("*.json")) == LSA_STEMS


@pytest.mark.parametrize("stem", LSA_STEMS)
def test_simple_json_is_byte_identical(stem, capsys):
    code = cli.main(["--json", "simple", str(CATALOG / f"{stem}.alg")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_SIMPLE / f"{stem}.json").read_text(encoding="utf-8")
