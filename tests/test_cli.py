import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lsakit
from lsakit import cli, repdim
from lsakit.serialize import (
    AlgebraDocument,
    DocumentError,
    algebra_to_document,
    document_to_algebra,
    format_document,
    parse_document,
)
from lsakit.simplicity import catalog_documents
from lsakit.trees import MAX_COUNT_ORDER


def run_cli(*args, **kwargs):
    # the child imports the lsakit under test, installed or not
    src = str(Path(lsakit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, "-m", "lsakit.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


A2_TEXT = """\
name: A_2
kind: lsa
dim: 3
table:
1 1 1 3/2
1 2 2 1
1 3 3 1/2
2 3 1 1
3 2 1 1
3 3 2 -1
"""


@pytest.fixture
def a2_file(tmp_path):
    f = tmp_path / "a2.alg"
    f.write_text(A2_TEXT)
    return str(f)


# -- document format ----------------------------------------------------------


def test_parse_and_roundtrip():
    doc = parse_document(A2_TEXT)
    assert doc.name == "A_2" and doc.kind == "lsa" and doc.dim == 3
    assert format_document(doc) == A2_TEXT


def test_roundtrip_all_catalog_documents():
    for doc in catalog_documents():
        assert parse_document(format_document(doc)) == doc.canonical()


def test_parse_rejects_zero_denominator():
    bad = A2_TEXT.replace("3/2", "1/0")
    with pytest.raises(DocumentError) as info:
        parse_document(bad)
    assert info.value.line == 5


def test_parse_rejects_unknown_kind():
    with pytest.raises(DocumentError):
        parse_document("name: x\nkind: weird\ndim: 1\ntable:\n")


def test_parse_rejects_out_of_range_indices():
    with pytest.raises(DocumentError):
        parse_document("name: x\nkind: lsa\ndim: 2\ntable:\n1 1 3 1\n")


def test_parse_rejects_zero_dim():
    with pytest.raises(DocumentError):
        parse_document("name: x\nkind: lsa\ndim: 0\ntable:\n")


def test_document_algebra_roundtrip():
    doc = parse_document(A2_TEXT)
    A = document_to_algebra(doc)
    back = algebra_to_document(A, kind="lsa")
    assert format_document(back) == A2_TEXT


def test_lie_document_builds_lie_algebra():
    text = "name: h1\nkind: lie\ndim: 3\ntable:\n1 2 3 1\n"
    g = document_to_algebra(parse_document(text))
    from lsakit.algebra import LieAlgebra

    assert isinstance(g, LieAlgebra)
    assert g.properties().nilpotent


# -- subcommands --------------------------------------------------------------


def test_check_lsa_passes(a2_file):
    proc = run_cli("check", a2_file)
    assert proc.returncode == 0, proc.stderr
    assert "left_symmetric: True" in proc.stdout


def test_check_wrong_kind_fails(tmp_path):
    f = tmp_path / "a2rsa.alg"
    f.write_text(A2_TEXT.replace("kind: lsa", "kind: rsa"))
    proc = run_cli("check", str(f))
    assert proc.returncode == 1
    assert "right_witness" in proc.stdout


def test_check_parse_error_exit_two(tmp_path):
    f = tmp_path / "bad.alg"
    f.write_text(A2_TEXT.replace("3/2", "1/0"))
    proc = run_cli("check", str(f))
    assert proc.returncode == 2
    assert "line 5" in proc.stderr


def test_analyze_json_structure(a2_file):
    proc = run_cli("--json", "--degree-cap", "2", "analyze", a2_file)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["complete"] is False
    assert report["simplicity"]["verdict"] == "Simple"
    assert report["inclusions_hold"] is True
    assert "H1" in report["cohomology"] and "H2" in report["cohomology"]


def test_analyze_deterministic(a2_file):
    out1 = run_cli("--json", "analyze", a2_file).stdout
    out2 = run_cli("--json", "analyze", a2_file).stdout
    assert out1 == out2


def test_cohomology_subcommand(a2_file):
    proc = run_cli("--json", "--degree-cap", "2", "cohomology", a2_file)
    report = json.loads(proc.stdout)
    assert report["H1"]["cocycles"] == report["derivations"]


def test_simple_subcommand(a2_file):
    proc = run_cli("--json", "simple", a2_file)
    report = json.loads(proc.stdout)
    assert report["verdict"] == "Simple"
    assert report["certificate"] is not None


def test_mu_pair_output():
    proc = run_cli("mu", "--pair", "6", "5")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7777 462 45"


def test_mu_sweep_small():
    proc = run_cli("--json", "mu", "--sweep", "10")
    report = json.loads(proc.stdout)
    assert all(report["sweep"][k] for k in report["sweep"] if k != "max_n")


def test_trees_count():
    proc = run_cli("trees", "--count", "7")
    assert proc.stdout.strip() == "48"


def test_trees_graft_json():
    proc = run_cli("--json", "trees", "--graft", "o[o]", "o")
    report = json.loads(proc.stdout)
    assert report["graft"] == [
        {"tree": "o[o,o]", "coefficient": "1"},
        {"tree": "o[o[o]]", "coefficient": "1"},
    ]


def test_words_prod():
    proc = run_cli("words", "--prod", "AB", "AB")
    assert proc.stdout.strip() == "2ABAB - AABB"


def test_words_rejects_bad_letters():
    proc = run_cli("words", "--prod", "AX", "B")
    assert proc.returncode == 2


def test_witt_props():
    proc = run_cli("--json", "witt", "--props", "1", "6")
    report = json.loads(proc.stdout)
    assert report["novikov"] is True
    assert report["closed_form_matches"] is True


def test_witt_props_two_vars_novikov_fails():
    proc = run_cli("--json", "witt", "--props", "2", "4")
    report = json.loads(proc.stdout)
    assert report["novikov"] is False
    assert report["right_symmetric_on_untruncated"] is True


def test_catalog_list_and_show():
    proc = run_cli("--json", "catalog")
    report = json.loads(proc.stdout)
    names = [e["name"] for e in report["entries"]]
    assert "A_2" in names and "dim4-complete-simple" in names
    shown = run_cli("catalog", "--show", "A_2")
    assert shown.returncode == 0
    assert parse_document(shown.stdout).name == "A_2"


def test_catalog_show_missing():
    proc = run_cli("catalog", "--show", "nonexistent")
    assert proc.returncode == 1


def test_every_catalog_entry_passes_check(tmp_path):
    for doc in catalog_documents():
        f = tmp_path / "entry.alg"
        f.write_text(format_document(doc))
        proc = run_cli("check", str(f))
        assert proc.returncode == 0, (doc.name, proc.stdout, proc.stderr)


def test_usage_error_exit_two():
    proc = run_cli("mu")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("--degree-cap", "4"),
        ("--degree-cap", "0"),
        ("--degree-cap", "-1"),
        ("--degree-cap", "two"),
        ("--samples", "-5"),
        ("--samples", "1.5"),
    ],
    ids=lambda flags: " ".join(flags),
)
def test_bad_global_flag_exit_two(flags, a2_file):
    proc = run_cli(*flags, "analyze", a2_file)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert flags[0] in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("mu", "--pair", "300", "2"),
        ("mu", "--pair", "3", "5"),
        ("mu", "--pair", "4", "0"),
        ("mu", "--table", "500"),
        ("mu", "--table", "-1"),
        ("mu", "--sweep", "100000"),
        ("mu", "--sweep", "0"),
        ("trees", "--count", "0"),
        ("trees", "--count", "-3"),
        ("trees", "--enumerate", "0"),
        ("trees", "--enumerate", "9"),
        ("trees", "--count", "1001"),
        ("witt", "--props", "0", "3"),
        ("witt", "--props", "-1", "3"),
        ("witt", "--props", "1", "-2"),
        ("witt", "--props", "1", "0"),
        ("witt", "--props", "8", "1"),
        ("witt", "--props", "3", "5"),
        ("witt", "--props", "4", "2"),
        ("witt", "--props", "4", "3"),
        ("witt", "--props", "8", "3"),
        ("witt", "--props", "1000", "3"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_subcommand_integer_exit_two(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert argv[1] in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("words", "--prod", "AC", "B"),
        ("trees", "--graft", "o[", "o"),
        ("trees", "--graft", "o[o]]", "o"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_unparsable_argument_exit_two(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"argument {argv[1]}" in proc.stderr


def test_subcommand_integers_accept_their_bounds():
    assert run_cli("mu", "--pair", "200", "200").returncode == 0
    assert run_cli("--json", "mu", "--table", "0").returncode == 0
    assert run_cli("--json", "trees", "--enumerate", "8").returncode == 0
    proc = run_cli("trees", "--count", "1")
    assert (proc.returncode, proc.stdout.strip()) == (0, "1")
    assert run_cli("trees", "--count", str(MAX_COUNT_ORDER)).returncode == 0
    proc = run_cli("--json", "witt", "--props", "1", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["cap"] == 1
    # the largest accepted input: 7 * C(8, 1) = 56 generators; the next
    # generator count, 60, is refused
    proc = run_cli("--json", "witt", "--props", "7", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["right_symmetric_on_untruncated"]


def test_internal_inconsistency_exits_three(monkeypatch, capsys):
    # a partition bound above the binomial one would falsify a theorem
    monkeypatch.setattr(repdim, "p_nk", lambda n, k: 10**9)
    assert cli.main(["mu", "--pair", "6", "5"]) == 3
    assert "bound ordering violated" in capsys.readouterr().err


def test_global_flags_accept_their_bounds(a2_file):
    proc = run_cli("--json", "--samples", "0", "--degree-cap", "1", "analyze", a2_file)
    assert proc.returncode == 0, proc.stderr
    assert list(json.loads(proc.stdout)["cohomology"]) == ["H1"]
