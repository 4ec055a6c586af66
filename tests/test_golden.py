"""``lsakit --json analyze`` output, byte for byte, against recorded reports.

The files under ``tests/golden/analyze/`` were recorded before the
per-algebra memo existed: ``<stem>.json`` with the default flags for every
catalog document, and ``<stem>.seed7-samples4.json`` with ``--seed 7
--samples 4`` for two documents, whose reports differ from the default ones
in sample-dependent fields.  In a seeded run the report's radicals use 4
samples while the fingerprint uses the default 32.  The fingerprint reads only
dimensions, which agree for both sample counts on every catalog document, so
a memo key that dropped the sample count would go unseen here; the keys are
checked directly in ``test_memo.py``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from lsakit import cli

CATALOG = Path(cli.__file__).resolve().parent / "catalog"
GOLDEN = Path(__file__).resolve().parent / "golden" / "analyze"

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
