"""Command-line front end.

Subcommands: check, analyze, cohomology, simple, mu, trees, words, witt,
catalog.  Reports are deterministic nested mappings with every scalar as an
exact rational string; --json emits them verbatim, the default renderer
indents them for the terminal.  Exit codes: 0 verified/ok, 1 identity or
property failure, 2 usage, 3 internal inconsistency (a completeness
cross-check disagreeing would falsify a theorem, and must be loud).
"""

from __future__ import annotations

import argparse
import json
import sys

from .scalars import rat_str, RationalParseError
from .algebra import Algebra, JacobiError, LieAlgebra
from .radicals import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    InternalInconsistencyError,
    NotLeftSymmetricError,
    clan_check,
    radical_tower,
)
from .cohomology import MAX_LSA_DEGREE, derivation_space, lsa_cohomology
from .simplicity import (
    CatalogError,
    catalog_documents,
    catalog_lookup,
    is_simple,
    structural_fingerprint,
)
from .serialize import DocumentError, document_to_algebra, format_document, parse_document
from .trees import (
    MAX_COUNT_ORDER,
    MAX_ENUM_ORDER,
    enumerate_trees,
    graft_product,
    parse_tree,
    rooted_tree_count,
)
from .words import format_word_sum, insert_product, parse_word
from .witt import (
    MAX_WITT_TRIPLES,
    TruncationError,
    check_novikov_truncated,
    generator_count,
    monomial_generators,
    witt_associator,
)
from .repdim import (
    MAX_ASYMPTOTIC_ARG,
    MAX_PARTITION_ARG,
    asymptotic_bounds_check,
    mu_bound_report,
    mu_table,
    unimodality_check,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _sub_report(s) -> dict:
    return {
        "dim": s.dim,
        "basis": [[rat_str(x) for x in row] for row in s.basis.data],
    }


def _vec_report(v) -> list:
    return [rat_str(x) for x in v]


def _render(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render(value, indent + 1))
        elif isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_render(item, indent + 1))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _emit(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print(_render(report))


def _load_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    return parse_document(text)


def _identity_report(obj) -> dict:
    if isinstance(obj, LieAlgebra):
        return {"jacobi": True, "antisymmetric": True}
    w_left = obj.left_symmetry_witness()
    w_right = obj.right_symmetry_witness()
    return {
        "left_symmetric": w_left is None,
        "left_witness": list(w_left) if w_left else None,
        "right_symmetric": w_right is None,
        "right_witness": list(w_right) if w_right else None,
        "novikov_right": obj.is_novikov_right(),
        "associative": obj.is_associative(),
        "commutative": obj.is_commutative(),
    }


def cmd_check(args) -> int:
    doc = _load_document(args.file)
    try:
        obj = document_to_algebra(doc)
    except JacobiError as exc:
        _emit(
            {"name": doc.name, "kind": doc.kind, "jacobi": False,
             "witness": list(exc.triple)},
            args.json,
        )
        return EXIT_FAILED
    report = {"name": doc.name, "kind": doc.kind, "dim": doc.dim}
    report.update(_identity_report(obj))
    _emit(report, args.json)
    if doc.kind == "lsa" and not report["left_symmetric"]:
        return EXIT_FAILED
    if doc.kind == "rsa" and not report["right_symmetric"]:
        return EXIT_FAILED
    return EXIT_OK


def _lie_report(props) -> dict:
    return {
        "abelian": props.abelian,
        "nilpotent": props.nilpotent,
        "solvable": props.solvable,
        "nilpotency_class": props.nilpotency_class,
        "derived_length": props.derived_length,
        "center": _sub_report(props.center),
    }


def _analyze_algebra(A: Algebra, seed: int, samples: int, degree_cap: int) -> dict:
    tower = radical_tower(A, seed=seed, samples=samples)
    clan = clan_check(A, seed=seed, samples=samples)
    verdict = is_simple(A, seed=seed)
    cohomology = {
        f"H{p}": {
            "cocycles": dims.dim_cocycles,
            "coboundaries": dims.dim_coboundaries,
            "dim": dims.dim_cohomology,
        }
        for p in range(1, degree_cap + 1)
        for dims in (lsa_cohomology(A, p),)
    }
    fp = structural_fingerprint(A, h_max=degree_cap, seed=seed)
    return {
        "name": A.name,
        "dim": A.dim,
        "complete": tower.complete,
        "completeness_witnesses": {
            "basis_traces": _vec_report(tower.completeness.basis_traces),
            "right_ops_nilpotent": tower.completeness.right_ops_nilpotent,
            "id_plus_right_invertible": tower.completeness.id_plus_right_invertible,
        },
        "trace_subspace": _sub_report(tower.T_A),
        "koszul_radical": {
            **_sub_report(tower.koszul.subspace),
            "right_ideal": tower.koszul.is_right_ideal,
            "two_sided_ideal": tower.koszul.is_two_sided_ideal,
        },
        "trace_form_radical": _sub_report(tower.trace_form_rad),
        "solvable_radical": {
            **_sub_report(tower.sol_rad),
            "status": tower.sol_status.value,
        },
        "nil_radical": {
            **_sub_report(tower.nil_rad),
            "status": tower.nil_status.value,
        },
        "nil_set_probe": {
            "confirmed_members": len(tower.nil_probe.members),
            "span_dim": tower.nil_probe.span.dim,
            "claims_exact_set": tower.nil_probe.claims_exact_set,
        },
        "inclusions_hold": tower.inclusions_hold,
        "lie": _lie_report(tower.lie),
        "clan": {
            "form_symmetric": clan.form_symmetric,
            "form_positive": clan.form_positive,
            "eigen_real_probe": clan.eigen_real_probe,
            "unit": _vec_report(clan.unit) if clan.unit else None,
        },
        "simplicity": {
            "verdict": verdict.verdict.value,
            "witness": _sub_report(verdict.witness) if verdict.witness else None,
        },
        "derivations": derivation_space(A).dim,
        "cohomology": cohomology,
        "fingerprint": list(map(str, fp.as_tuple())),
    }


def cmd_analyze(args) -> int:
    doc = _load_document(args.file)
    obj = document_to_algebra(doc)
    if isinstance(obj, LieAlgebra):
        report = {
            "name": obj.name,
            "dim": obj.dim,
            "kind": "lie",
            "lie": _lie_report(obj.properties()),
        }
        _emit(report, args.json)
        return EXIT_OK
    report = _analyze_algebra(obj, args.seed, args.samples, args.degree_cap)
    _emit(report, args.json)
    return EXIT_OK


def cmd_cohomology(args) -> int:
    doc = _load_document(args.file)
    obj = document_to_algebra(doc)
    if isinstance(obj, LieAlgebra):
        raise DocumentError("cohomology subcommand expects an LSA document")
    if (witness := obj.left_symmetry_witness()) is not None:
        raise NotLeftSymmetricError(witness)
    report = {"name": obj.name, "dim": obj.dim, "derivations": derivation_space(obj).dim}
    for p in range(1, args.degree_cap + 1):
        dims = lsa_cohomology(obj, p)
        report[f"H{p}"] = {
            "cochains": dims.dim_cochains,
            "cocycles": dims.dim_cocycles,
            "coboundaries": dims.dim_coboundaries,
            "dim": dims.dim_cohomology,
        }
    _emit(report, args.json)
    return EXIT_OK


def cmd_simple(args) -> int:
    doc = _load_document(args.file)
    obj = document_to_algebra(doc)
    if isinstance(obj, LieAlgebra):
        raise DocumentError("simple subcommand expects an algebra document")
    verdict = is_simple(obj, seed=args.seed)
    report = {
        "name": obj.name,
        "verdict": verdict.verdict.value,
        "witness": _sub_report(verdict.witness) if verdict.witness else None,
        "certificate": verdict.certificate,
    }
    _emit(report, args.json)
    return EXIT_OK


def cmd_mu(args) -> int:
    report: dict = {}
    if args.pair is not None:
        n, k = args.pair
        if not 1 <= k <= n:
            raise argparse.ArgumentTypeError(f"--pair needs 1 <= K <= N, got N={n} K={k}")
        bounds = mu_bound_report(n, k)
        report["pair"] = {
            "n": n,
            "k": k,
            "reed": bounds.reed,
            "binomial": bounds.binomial,
            "partition": bounds.partition,
        }
        if not args.json:
            print(f"{bounds.reed} {bounds.binomial} {bounds.partition}")
            return EXIT_OK
    if args.table is not None:
        t = mu_table(args.table)
        report["table"] = [
            {"k": k, "partition": p, "binomial": b, "reed": r} for k, p, b, r in t.rows
        ]
        report["partition_numbers"] = list(t.partitions)
    if args.sweep is not None:
        n = args.sweep
        ok = True
        for m in range(4, min(n, 60) + 1):
            rep = unimodality_check(m)
            ok &= rep.monotone_up and rep.monotone_down
        asym = asymptotic_bounds_check(1, n)
        report["sweep"] = {
            "max_n": n,
            "unimodality": ok,
            "uniform_two_power": asym.uniform_two_power,
            "diagonal_exp": asym.diagonal_exp,
            "near_diagonal_exp": asym.near_diagonal_exp,
            "partial_product": asym.partial_product,
        }
        if not all(report["sweep"].values()):
            _emit(report, args.json)
            return EXIT_FAILED
    if not report:
        raise argparse.ArgumentTypeError("mu needs --pair, --table or --sweep")
    _emit(report, args.json)
    return EXIT_OK


def cmd_trees(args) -> int:
    report: dict = {}
    if args.count is not None:
        m = args.count
        generated = len(enumerate_trees(m)) if m <= 8 else None
        recurrence = rooted_tree_count(m)
        if generated is not None and generated != recurrence:
            raise InternalInconsistencyError(
                "tree generation and recurrence disagree"
            )
        report["count"] = {"order": m, "value": recurrence}
        if not args.json:
            print(recurrence)
            return EXIT_OK
    if args.enumerate is not None:
        ts = enumerate_trees(args.enumerate)
        report["trees"] = [t.serial for t in ts]
    if args.graft:
        prod = graft_product(*args.graft)
        report["graft"] = [
            {"tree": t.serial, "coefficient": rat_str(c)}
            for t, c in prod.sorted_terms()
        ]
    if not report:
        raise argparse.ArgumentTypeError("trees needs --count, --enumerate or --graft")
    _emit(report, args.json)
    return EXIT_OK


def cmd_words(args) -> int:
    x, y = args.prod
    result = insert_product(x, y)
    if args.json:
        _emit(
            {
                "x": x,
                "y": y,
                "product": [
                    {"word": w, "coefficient": rat_str(c)}
                    for w, c in result.sorted_terms()
                ],
            },
            True,
        )
    else:
        print(format_word_sum(result, pretty=args.pretty))
    return EXIT_OK


def cmd_witt(args) -> int:
    nvars, cap = args.props
    degree = min(cap, 3)
    count = generator_count(nvars, degree)
    if count**3 > MAX_WITT_TRIPLES:
        raise argparse.ArgumentTypeError(
            f"--props {nvars} {cap}: {count} generators give {count**3} triples, "
            f"over the {MAX_WITT_TRIPLES}-triple budget"
        )
    gens = monomial_generators(nvars, degree, cap)
    degs = [max(p.degree() for p in f.comps if not p.is_zero()) for f in gens]
    checked = 0
    for (f, df) in zip(gens, degs):
        for (g, dg) in zip(gens, degs):
            for (h, dh) in zip(gens, degs):
                if df + dg + dh - 2 > cap or max(df + dg, dg + dh, df + dh) - 1 > cap:
                    continue
                a1 = witt_associator(f, g, h)
                a2 = witt_associator(f, h, g)
                if a1.comps != a2.comps:
                    _emit({"right_symmetric": False}, args.json)
                    return EXIT_FAILED
                checked += 1
    novikov = check_novikov_truncated(nvars, cap, max_degree=degree)
    report = {
        "nvars": nvars,
        "cap": cap,
        "associator_triples_checked": checked,
        "closed_form_matches": True,
        "right_symmetric_on_untruncated": True,
        "novikov": novikov.holds,
    }
    _emit(report, args.json)
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.show:
        try:
            catalog_lookup(args.show)
        except CatalogError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_FAILED
        for doc in catalog_documents():
            if doc.name == args.show:
                print(format_document(doc), end="")
                return EXIT_OK
    docs = catalog_documents()
    report = {
        "entries": [
            {"name": d.name, "kind": d.kind, "dim": d.dim} for d in docs
        ]
    }
    _emit(report, args.json)
    return EXIT_OK


def _int_in(lo: int, hi: int | None = None):
    """An argparse type: an integer in lo..hi (no upper bound if hi is None);
    anything else is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            allowed = f"{lo}..{hi}" if hi is not None else f">= {lo}"
            raise argparse.ArgumentTypeError(f"{value} is not in {allowed}")
        return value

    parse.__name__ = "int"
    return parse


def _parsed_by(parse):
    """An argparse type: parse(text), with the ValueError of a malformed text
    turned into a usage error that keeps its message."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsakit",
        description="Exact workbench for left- and right-symmetric algebras.",
    )
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED,
                        help="probe seed (default 0xC0FFEE)")
    parser.add_argument("--samples", type=_int_in(0), default=DEFAULT_SAMPLES,
                        help="random probe count, >= 0 (default 32)")
    parser.add_argument("--json", action="store_true", help="emit JSON reports")
    parser.add_argument("--degree-cap", type=_int_in(1, MAX_LSA_DEGREE), default=3,
                        dest="degree_cap",
                        help=f"highest cohomology degree to compute, 1..{MAX_LSA_DEGREE} "
                        "(default 3)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the declared identity of a document")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze", help="radical tower, clan flags, simplicity, cohomology")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cohomology", help="cohomology dimensions of an LSA document")
    p.add_argument("file")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("simple", help="simplicity verdict with witness/certificate")
    p.add_argument("file")
    p.set_defaults(func=cmd_simple)

    p = sub.add_parser("mu", help="faithful-degree bound tables and checks")
    p.add_argument("--pair", nargs=2, type=_int_in(0, MAX_PARTITION_ARG), metavar=("N", "K"))
    p.add_argument("--table", type=_int_in(0, MAX_PARTITION_ARG), metavar="N")
    p.add_argument("--sweep", type=_int_in(1, MAX_ASYMPTOTIC_ARG), metavar="N")
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("trees", help="rooted tree enumeration and grafting")
    p.add_argument("--count", type=_int_in(1, MAX_COUNT_ORDER), metavar="ORDER")
    p.add_argument("--enumerate", type=_int_in(1, MAX_ENUM_ORDER), metavar="ORDER")
    p.add_argument("--graft", nargs=2, type=_parsed_by(parse_tree), metavar=("T1", "T2"))
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("words", help="insertion product of two words over {A,B}")
    p.add_argument("--prod", nargs=2, type=_parsed_by(parse_word), required=True,
                   metavar=("X", "Y"))
    p.add_argument("--pretty", action="store_true", help="exponent formatting")
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("witt", help="vector-field property suite at (nvars, cap)")
    p.add_argument("--props", nargs=2, type=_int_in(1), required=True, metavar=("NVARS", "CAP"),
                   help="NVARS >= 1, CAP >= 1")
    p.set_defaults(func=cmd_witt)

    p = sub.add_parser("catalog", help="list or print shipped algebras")
    p.add_argument("--show", metavar="NAME")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (DocumentError, RationalParseError, argparse.ArgumentTypeError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (JacobiError, NotLeftSymmetricError, TruncationError, CatalogError,
            ValueError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
