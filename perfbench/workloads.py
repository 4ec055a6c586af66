"""The three benchmark workloads.

Each workload builds its inputs in ``setup`` from the workload seed, runs one
item per ``run`` call (the only timed code), and checks an item's answer in
``check`` against known mathematics, independent oracles and the values the
seed commit recorded in ``reference.json``.  An item is a tuple whose first
element names it.  The seed shapes inputs and item
order only; the library's own probe seed stays at its default.

Allowed differences from the recorded values, so that a later change that
improves an answer is not counted as a failure:

- an Inconclusive simplicity verdict may become Simple or NotSimple;
- a radical with a heuristic certificate may grow, or become exact;
- a NotSimple witness may be any proper two-sided ideal.

Everything else must match exactly.  Certificates are compared by meaning,
not byte for byte: subspaces by span, verdicts by value.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

SIMPLE = "Simple"
NOT_SIMPLE = "NotSimple"
INCONCLUSIVE = "Inconclusive"
EXACT = "exact"


@dataclass
class Outcome:
    """What one item's check found."""

    errors: list = field(default_factory=list)
    verdicts: int = 0  # is_simple answers given
    decided: int = 0  # ... that were Simple or NotSimple
    radicals: int = 0  # solvable and nil radicals computed
    exact: int = 0  # ... with an EXACT certificate

    def expect(self, ok: bool, message: str):
        if not ok:
            self.errors.append(message)


def _basis(rows) -> list:
    return [oracle.parse_vector(r) for r in rows]


def _span(rows, n: int) -> list:
    return oracle.rref(_basis(rows), n)


def _unit_span(n: int, *indices) -> list:
    return oracle.rref([[Fraction(int(t == i - 1)) for t in range(n)] for i in indices], n)


def _check_radical(out: Outcome, label: str, n: int, rows, status: str, ref: dict):
    """Recorded EXACT: same span, still EXACT.  Recorded heuristic: the new
    span contains the recorded one (a smaller probe family would shrink it)."""
    out.radicals += 1
    out.exact += status == EXACT
    new, old = _span(rows, n), _span(ref["basis"], n)
    if ref["status"] == EXACT:
        out.expect(status == EXACT and oracle.same_span(new, old),
                   f"{label}: exact radical changed")
    else:
        out.expect(oracle.contains(new, old), f"{label}: radical lost vectors")


def _check_verdict(out: Outcome, label: str, table, n: int, verdict: str,
                   witness_rows, recorded: str):
    """Recorded Inconclusive may become a decided verdict; a decided one must
    stay.  Any NotSimple witness must be a proper two-sided ideal under the
    benchmark's own multiplication."""
    out.verdicts += 1
    out.decided += verdict != INCONCLUSIVE
    if recorded != INCONCLUSIVE:
        out.expect(verdict == recorded, f"{label}: verdict {verdict}, recorded {recorded}")
    if verdict == NOT_SIMPLE:
        ok = witness_rows is not None and oracle.is_two_sided_ideal(
            table, n, _basis(witness_rows))
        out.expect(ok, f"{label}: NotSimple witness is not a proper two-sided ideal")


def _rows(subspace) -> list:
    """A lsakit Subspace as rational strings, the form the CLI reports."""
    return [[str(x) for x in row] for row in subspace.basis.data]


def _catalog_texts(root: Path) -> list[tuple[Path, str]]:
    return [(p, p.read_text(encoding="utf-8"))
            for p in sorted((root / "src" / "lsakit" / "catalog").glob("*.alg"))]


class CatalogAnalyze:
    """``lsakit --json analyze`` in process on every shipped catalog
    document: the user's path, on sparse integer tables of dim 2-6."""

    # Answers the acceptance criteria state, checked on top of the recording.
    KNOWN_SIMPLE = {
        "dim2-simple", "A_1(1/2)", "A_1(-1)", "A_2", "dim4-complete-simple",
        "incomplete-simple(3)", "incomplete-simple(4)", "incomplete-simple(5)",
    }
    KNOWN_COMPLETE = {
        "A_1(-1)": True, "A_1(1/2)": False, "A_1(1)": False,
        "dim4-complete-simple": True, "incomplete-simple(3)": False,
        "incomplete-simple(4)": False, "incomplete-simple(5)": False,
    }

    def setup(self, lk, root: Path, seed: int):
        self.cli = importlib.import_module(lk.__name__ + ".cli")
        self.items = []
        for path, text in _catalog_texts(root):
            doc = lk.parse_document(text)
            table = oracle.table_from_entries(doc.entries)
            self.items.append((doc.name, str(path), doc.kind, doc.dim, table))
        random.Random(seed).shuffle(self.items)

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["--json", "analyze", item[1]])
        return code, buf.getvalue()

    def check(self, item, result, refs: dict) -> Outcome:
        name, _, kind, n, table = item
        code, text = result
        out = Outcome()
        report = json.loads(text)
        out.expect(code == 0, f"{name}: exit code {code}")
        ref = refs[name]
        if kind == "lie":
            out.expect(_same_lie(report["lie"], ref["lie"], n), f"{name}: lie report changed")
            return out
        self._check_lsa(out, name, n, table, report, ref)
        return out

    def _check_lsa(self, out: Outcome, name: str, n: int, table, report: dict, ref: dict):
        exact_fields = ("name", "dim", "complete", "completeness_witnesses",
                        "nil_set_probe", "inclusions_hold", "clan", "derivations",
                        "cohomology")
        for key in exact_fields:
            out.expect(report[key] == ref[key], f"{name}: {key} changed")
        for key in ("trace_subspace", "koszul_radical", "trace_form_radical"):
            same = oracle.same_span(_span(report[key]["basis"], n), _span(ref[key]["basis"], n))
            flags = {k: v for k, v in report[key].items() if k not in ("basis", "dim")}
            ref_flags = {k: v for k, v in ref[key].items() if k not in ("basis", "dim")}
            out.expect(same and flags == ref_flags, f"{name}: {key} changed")
        out.expect(_same_lie(report["lie"], ref["lie"], n), f"{name}: lie report changed")
        for key in ("solvable_radical", "nil_radical"):
            _check_radical(out, f"{name} {key}", n, report[key]["basis"],
                           report[key]["status"], ref[key])
        simp = report["simplicity"]
        witness = simp["witness"]["basis"] if simp["witness"] else None
        _check_verdict(out, name, table, n, simp["verdict"], witness,
                       ref["simplicity"]["verdict"])

        # Independent oracles and known answers.
        h1 = report["cohomology"]["H1"]
        out.expect(h1["cocycles"] == report["derivations"], f"{name}: dim Z^1 != dim Der")
        chain = [_span(report[k]["basis"], n) for k in
                 ("nil_radical", "koszul_radical", "trace_form_radical", "trace_subspace")]
        out.expect(report["inclusions_hold"]
                   and all(oracle.contains(b, a) for a, b in zip(chain, chain[1:])),
                   f"{name}: inclusion chain nil <= rad <= A_perp <= T(A) fails")
        if name in self.KNOWN_SIMPLE:
            out.expect(simp["verdict"] == SIMPLE, f"{name}: known simple, got {simp['verdict']}")
        else:
            out.expect(simp["verdict"] != INCONCLUSIVE, f"{name}: catalog verdict Inconclusive")
        if name in self.KNOWN_COMPLETE:
            out.expect(report["complete"] == self.KNOWN_COMPLETE[name], f"{name}: completeness")
        if name == "radical-not-right-ideal":
            known = (
                oracle.same_span(chain[3], _unit_span(4, 1, 3, 4))
                and oracle.same_span(chain[1], _unit_span(4, 1))
                and oracle.same_span(chain[2], _unit_span(4, 1))
                and not chain[0]
                and not report["koszul_radical"]["right_ideal"]
                and report["lie"]["solvable"] and not report["lie"]["nilpotent"]
            )
            out.expect(known, f"{name}: acceptance criterion 1 values")
        fp = [str(report["dim"]), str(report["complete"])]
        fp += [str(report[k]["dim"]) for k in ("trace_subspace", "trace_form_radical",
                                             "koszul_radical", "nil_radical",
                                             "solvable_radical")]
        fp += [str(report["lie"][k]) for k in ("abelian", "nilpotent", "solvable")]
        fp += [simp["verdict"], str(report["derivations"]),
               str(tuple(report["cohomology"][h]["dim"] for h in ("H1", "H2", "H3")))]
        out.expect(report["fingerprint"] == fp, f"{name}: fingerprint disagrees with report")


def _same_lie(lie: dict, ref: dict, n: int) -> bool:
    flags = {k: v for k, v in lie.items() if k != "center"}
    ref_flags = {k: v for k, v in ref.items() if k != "center"}
    return flags == ref_flags and oracle.same_span(
        _span(lie["center"]["basis"], n), _span(ref["center"]["basis"], n))


class ExtensionLadder:
    """``radical_tower`` then ``is_simple`` on the sparse scaling ladders:
    End(A) + A extensions of dim 6 and 12, incomplete_simple(n) for
    n = 8, 10 and strict_upper(5) (dim 10)."""

    def setup(self, lk, root: Path, seed: int):
        texts = {p.name: t for p, t in _catalog_texts(root)}
        dim2 = lk.document_to_algebra(lk.parse_document(texts["dim2_simple.alg"]))
        nil2 = lk.document_to_algebra(lk.parse_document(texts["nilpotent2.alg"]))
        ladder = [
            ("helmstetter(dim2-simple)", lk.helmstetter_extension(dim2)),
            ("helmstetter(nilpotent2)", lk.helmstetter_extension(nil2)),
            ("helmstetter(A_2)", lk.helmstetter_extension(lk.a_two())),
            ("incomplete_simple(8)", lk.incomplete_simple(8)),
            ("incomplete_simple(10)", lk.incomplete_simple(10)),
            ("strict_upper(5)", lk.strict_upper(5)),
        ]
        self.lk = lk
        self.items = [(key, A, {ij: dict(row) for ij, row in A.table.items()})
                      for key, A in ladder]
        random.Random(seed).shuffle(self.items)

    def run(self, item):
        A = _fresh(self.lk, item[1])
        return self.lk.radical_tower(A), self.lk.is_simple(A)

    def check(self, item, result, refs: dict) -> Outcome:
        key, A, table = item
        tower, verdict = result
        n = A.dim
        ref = refs[key]
        out = Outcome()
        spans = {
            "trace_subspace": tower.T_A,
            "koszul_radical": tower.koszul.subspace,
            "trace_form_radical": tower.trace_form_rad,
        }
        for label, sub in spans.items():
            out.expect(oracle.same_span(_span(_rows(sub), n), _span(ref[label], n)),
                       f"{key}: {label} changed")
        out.expect(tower.complete == ref["complete"], f"{key}: completeness changed")
        out.expect([tower.lie.nilpotent, tower.lie.solvable] == ref["lie"],
                   f"{key}: commutator Lie properties changed")
        _check_radical(out, f"{key} solvable_radical", n, _rows(tower.sol_rad),
                       tower.sol_status.value, ref["solvable_radical"])
        _check_radical(out, f"{key} nil_radical", n, _rows(tower.nil_rad),
                       tower.nil_status.value, ref["nil_radical"])
        chain = [_span(_rows(s), n) for s in
                 (tower.nil_rad, tower.koszul.subspace, tower.trace_form_rad, tower.T_A)]
        out.expect(tower.inclusions_hold
                   and all(oracle.contains(b, a) for a, b in zip(chain, chain[1:])),
                   f"{key}: inclusion chain nil <= rad <= A_perp <= T(A) fails")
        v = verdict.verdict.value
        witness = _rows(verdict.witness) if verdict.witness is not None else None
        _check_verdict(out, key, table, n, v, witness, ref["verdict"])
        if key.startswith("incomplete_simple"):
            out.expect(v != NOT_SIMPLE, f"{key}: simple for every n, got NotSimple")
        if key.startswith("strict_upper"):
            out.expect(v == NOT_SIMPLE, f"{key}: never simple, got {v}")
        return out


class DenseCohomology:
    """``lsa_cohomology`` and ``derivation_space`` on dense rational copies
    P^-1 (Px . Py) of the catalog LSAs of dim <= 4."""

    # Copies of each source algebra per run, and the degrees computed.  The
    # dim-4 copies stop at H^2: one dense dim-4 H^3 costs 10-30 s on 2 vCPUs.
    COPIES = {2: 7, 3: 7, 4: 2}
    DEGREES = {2: (1, 2, 3), 3: (1, 2, 3), 4: (1, 2)}

    def setup(self, lk, root: Path, seed: int):
        rng = random.Random(seed)
        self.lk = lk
        self.items = []
        for _, text in _catalog_texts(root):
            doc = lk.parse_document(text)
            if doc.kind != "lsa" or doc.dim not in self.COPIES:
                continue
            n = doc.dim
            table = oracle.table_from_entries(doc.entries)
            for copy in range(self.COPIES[n]):
                P = _draw_basis_change(n, rng)
                B = lk.Algebra(f"{doc.name}@{copy}", n, oracle.change_of_basis(table, n, P))
                self.items.append((doc.name, B, self.DEGREES[n]))
        rng.shuffle(self.items)

    def run(self, item):
        _, B, degrees = item
        B = _fresh(self.lk, B)
        dims = [self.lk.lsa_cohomology(B, p) for p in degrees]
        return dims, self.lk.derivation_space(B).dim

    def check(self, item, result, refs: dict) -> Outcome:
        source, B, degrees = item
        dims, der = result
        ref = refs[source]
        out = Outcome()
        for p, d in zip(degrees, dims):
            got = [d.dim_cochains, d.dim_cocycles, d.dim_coboundaries, d.dim_cohomology]
            out.expect(got == ref[f"H{p}"], f"{B.name}: H{p} {got} differs from its source")
        out.expect(der == ref["derivations"], f"{B.name}: derivations differ from its source")
        out.expect(dims[0].dim_cocycles == der, f"{B.name}: dim Z^1 != dim Der")
        return out


def _fresh(lk, A):
    """A new Algebra with A's table, so that nothing the library may attach
    to an algebra object carries over from one pass to the next."""
    return lk.Algebra(A.name, A.dim, A.table)


def _draw_basis_change(n: int, rng: random.Random) -> list:
    """A nonsingular matrix with every entry +-1: dense, with |det| a small
    power of two, so the copies have small denominators and a cost that
    varies little from draw to draw."""
    while True:
        P = [[rng.choice((-1, 1)) for _ in range(n)] for _ in range(n)]
        if oracle.det(P):
            return P


WORKLOADS = {
    "catalog_analyze": CatalogAnalyze,
    "extension_ladder": ExtensionLadder,
    "dense_cohomology": DenseCohomology,
}
