"""Simplicity testing via the multiplication algebra, and the catalog of
worked algebras shipped with the package.

A two-sided ideal of A is exactly a submodule of K^n over the associative
algebra generated by all left and right multiplication operators, so
simplicity is module irreducibility and the classic meataxe strategy
applies, adapted to characteristic zero: factor the characteristic
polynomial of schedule elements exactly, spin kernel vectors, and certify
irreducibility through the minimal-nullity two-sided (module + transposed
module) criterion.  Verdicts are Simple / NotSimple with a verified witness
ideal / Inconclusive after a fixed deterministic budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .scalars import QQ, ONE
from .linalg import Matrix, Subspace
from .algebra import Algebra, LieAlgebra, basis_vec, memoized
from .polys import Poly, UnsupportedDegreeError, factor_small
from .radicals import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    InternalInconsistencyError,
    ideal_generated,
    is_complete,
    is_ideal,
    koszul_radical,
    nil_radical,
    solvable_radical,
    trace_form_radical,
    trace_subspace,
)
from .cohomology import derivation_space, lsa_cohomology
from .serialize import parse_document, document_to_algebra

MEATAXE_BUDGET = 64


class Verdict(Enum):
    SIMPLE = "Simple"
    NOT_SIMPLE = "NotSimple"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SimplicityVerdict:
    verdict: Verdict
    witness: Subspace | None
    certificate: dict | None

    @property
    def is_simple(self) -> bool:
        return self.verdict is Verdict.SIMPLE


def _verified_ideal(A: Algebra, I: Subspace) -> Subspace:
    """I itself, after checking that it is a two-sided ideal: a NotSimple
    witness is verified, also under ``python -O``."""
    if not is_ideal(A, I, "two_sided"):
        raise InternalInconsistencyError(
            "is_simple produced a NotSimple witness that is not a two-sided ideal"
        )
    return I


def _poly_at_matrix(p: Poly, M: Matrix) -> Matrix:
    n = M.rows
    acc = Matrix.zeros(n, n)
    for c in reversed(p.coeffs):
        acc = acc * M
        if c:
            acc = acc + Matrix.identity(n).scale(c)
    return acc


@memoized
def is_simple(A: Algebra, seed: int = DEFAULT_SEED, budget: int = MEATAXE_BUDGET) -> SimplicityVerdict:
    n = A.dim
    if A.is_trivial():
        witness = (
            Subspace.from_vectors(n, [basis_vec(n, 1)]) if n >= 2 else None
        )
        return SimplicityVerdict(Verdict.NOT_SIMPLE, witness, None)

    # Phase 1: spin two-sided ideals from basis vectors and pairwise sums.
    probes = [basis_vec(n, i) for i in range(1, n + 1)]
    probes += [
        tuple(a + b for a, b in zip(basis_vec(n, i), basis_vec(n, j)))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    for p in probes:
        I = ideal_generated(A, p, "two_sided")
        if 0 < I.dim < n:
            return SimplicityVerdict(Verdict.NOT_SIMPLE, _verified_ideal(A, I), None)

    # Phase 2: meataxe over the multiplication algebra.
    gens = A.side_ops("two_sided")
    gens_t = [g.transpose() for g in gens]
    rng = random.Random(seed)

    def schedule():
        for idx, g in enumerate(gens):
            yield f"gen[{idx}]", g
        for i in range(len(gens)):
            for j in range(len(gens)):
                yield f"gen[{i}]*gen[{j}]", gens[i] * gens[j]
        while True:
            coeffs = [rng.randint(-3, 3) for _ in gens]
            z = Matrix.zeros(n, n)
            for c, g in zip(coeffs, gens):
                if c:
                    z = z + g.scale(c)
            yield f"combo{coeffs}", z

    tried = 0
    for label, z in schedule():
        if tried >= budget:
            break
        if z.is_zero():
            continue
        tried += 1
        try:
            _, factors = factor_small(z.char_poly())
        except UnsupportedDegreeError:
            continue
        for f, _mult in sorted(factors, key=lambda fm: fm[0].degree):
            fz = _poly_at_matrix(f, z)
            N = fz.kernel()
            if N.dim == 0:
                continue
            proper = None
            for v in N.basis_vectors():
                W = Subspace.from_vectors(n, [v]).spin(gens)
                if W.dim < n:
                    proper = W
                    break
            if proper is not None:
                return SimplicityVerdict(Verdict.NOT_SIMPLE, _verified_ideal(A, proper), None)
            if N.dim == f.degree:
                # minimal nullity: one spin on each side decides
                Nt = _poly_at_matrix(f, z.transpose()).kernel()
                wt = Nt.basis_vectors()[0]
                Wt = Subspace.from_vectors(n, [wt]).spin(gens_t)
                if Wt.dim == n:
                    certificate = {
                        "element": label,
                        "factor": [str(c) for c in f.coeffs],
                        "nullity": N.dim,
                    }
                    return SimplicityVerdict(Verdict.SIMPLE, None, certificate)
                # the annihilator of the transposed spin is a proper submodule
                perp = Matrix(list(Wt.basis.data), cols=n).kernel()
                if not 0 < perp.dim < n:
                    raise InternalInconsistencyError(
                        "the annihilator of a proper transposed spin is not a proper subspace"
                    )
                return SimplicityVerdict(Verdict.NOT_SIMPLE, _verified_ideal(A, perp), None)
    return SimplicityVerdict(Verdict.INCONCLUSIVE, None, None)


# ---------------------------------------------------------------------------
# Catalog.
# ---------------------------------------------------------------------------


class CatalogError(KeyError):
    pass


_CATALOG_FILES = (
    "lsa_rsa_2dim.alg",
    "radical_not_right_ideal.alg",
    "dim2_simple.alg",
    "a1_lambda_minus1.alg",
    "a1_lambda_half.alg",
    "a1_lambda_1.alg",
    "a2.alg",
    "dim4_complete_simple.alg",
    "incomplete_simple_3.alg",
    "incomplete_simple_4.alg",
    "incomplete_simple_5.alg",
    "strict_upper_3.alg",
    "nilpotent2.alg",
    "heisenberg_1.alg",
    "heisenberg_2.alg",
    "filiform_6.alg",
)


def catalog_documents():
    """The shipped catalog as parsed documents, in display order."""
    docs = []
    base = resources.files(__package__) / "catalog"
    for fname in _CATALOG_FILES:
        docs.append(parse_document((base / fname).read_text()))
    return docs


def catalog() -> dict:
    """Name -> Algebra/LieAlgebra for every shipped catalog entry."""
    return {doc.name: document_to_algebra(doc) for doc in catalog_documents()}


def catalog_lookup(name: str):
    entries = catalog()
    if name not in entries:
        raise CatalogError(f"no catalog entry named {name!r}")
    return entries[name]


def catalog_lsas() -> dict:
    return {k: v for k, v in catalog().items() if isinstance(v, Algebra)}


def a_one(lam) -> Algebra:
    """The three-dimensional simple family A_1 at a rational parameter."""
    lam = QQ(lam)
    if lam == 0:
        raise ValueError("the family is defined for nonzero parameters")
    table = {
        (1, 2): {2: ONE},
        (1, 3): {3: lam},
        (2, 3): {1: ONE},
        (3, 2): {1: ONE},
    }
    if lam + 1 != 0:
        table[(1, 1)] = {1: lam + 1}
    return Algebra(f"A_1({lam})", 3, table)


def a_two() -> Algebra:
    return Algebra(
        "A_2",
        3,
        {
            (1, 1): {1: QQ(3, 2)},
            (1, 2): {2: 1},
            (1, 3): {3: QQ(1, 2)},
            (2, 3): {1: 1},
            (3, 2): {1: 1},
            (3, 3): {2: -1},
        },
    )


def incomplete_simple(n: int) -> Algebra:
    """e1.e1 = 2e1, e1.ej = ej, ej.ej = e1: simple, incomplete, any n >= 2."""
    if n < 2:
        raise ValueError("the family needs dimension >= 2")
    table = {(1, 1): {1: QQ(2)}}
    for j in range(2, n + 1):
        table[(1, j)] = {j: ONE}
        table[(j, j)] = {1: ONE}
    return Algebra(f"incomplete-simple({n})", n, table)


def heisenberg(m: int) -> LieAlgebra:
    """The (2m+1)-dimensional Lie algebra with [x_i, y_i] = z."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = 2 * m + 1
    return LieAlgebra(
        f"heisenberg({m})",
        n,
        {(i, m + i): basis_vec(n, n) for i in range(1, m + 1)},
    )


def strict_upper(n: int) -> Algebra:
    """Strictly upper triangular n x n matrices as an associative algebra."""
    if n < 2:
        raise ValueError("n must be >= 2")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    index = {pq: t + 1 for t, pq in enumerate(pairs)}
    table = {}
    for (p, q) in pairs:
        for (r, s) in pairs:
            if q == r:
                table[(index[(p, q)], index[(r, s)])] = {index[(p, s)]: ONE}
    return Algebra(f"strict-upper({n})", len(pairs), table)


# ---------------------------------------------------------------------------
# Fingerprints.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    dim: int
    complete: bool
    dim_trace_subspace: int
    dim_trace_form_rad: int
    dim_koszul_rad: int
    dim_nil_rad: int
    dim_sol_rad: int
    lie_abelian: bool
    lie_nilpotent: bool
    lie_solvable: bool
    simplicity: str
    dim_derivations: int
    cohomology: tuple

    def as_tuple(self) -> tuple:
        return (
            self.dim,
            self.complete,
            self.dim_trace_subspace,
            self.dim_trace_form_rad,
            self.dim_koszul_rad,
            self.dim_nil_rad,
            self.dim_sol_rad,
            self.lie_abelian,
            self.lie_nilpotent,
            self.lie_solvable,
            self.simplicity,
            self.dim_derivations,
            self.cohomology,
        )


def structural_fingerprint(A: Algebra, h_max: int = 3, seed: int = DEFAULT_SEED) -> Fingerprint:
    """Isomorphism-invariant summary tuple (equality does NOT certify
    isomorphism).  h_max caps the cohomology degrees computed.  The probed
    radicals and completeness use ``DEFAULT_SAMPLES`` random probes with the
    given seed; every value is read from the algebra's memo when already
    computed."""
    comp = is_complete(A, DEFAULT_SAMPLES, seed)
    lie = A.commutator_lie().properties()
    sol, _ = solvable_radical(A, seed, DEFAULT_SAMPLES)
    nil, _ = nil_radical(A, seed, DEFAULT_SAMPLES)
    hs = tuple(
        lsa_cohomology(A, p).dim_cohomology for p in range(1, h_max + 1)
    )
    return Fingerprint(
        dim=A.dim,
        complete=comp.complete,
        dim_trace_subspace=trace_subspace(A).dim,
        dim_trace_form_rad=trace_form_radical(A).dim,
        dim_koszul_rad=koszul_radical(A).subspace.dim,
        dim_nil_rad=nil.dim,
        dim_sol_rad=sol.dim,
        lie_abelian=lie.abelian,
        lie_nilpotent=lie.nilpotent,
        lie_solvable=lie.solvable,
        simplicity=is_simple(A, seed=seed).verdict.value,
        dim_derivations=derivation_space(A).dim,
        cohomology=hs,
    )
