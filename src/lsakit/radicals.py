"""Completeness, the radical tower, clan conditions and the endomorphism
extension for left-symmetric algebras.

Four nested subspaces are computed for an LSA:

    nil(A)  -- maximal left-nilpotent (two-sided) ideal, probed
    rad(A)  -- largest left ideal inside T(A) (Koszul), exact
    A_perp  -- kernel of the trace form s(x,y) = tr R(x)R(y), exact
    T(A)    -- kernel of x -> tr R(x), exact

Completeness is decided by the linear trace condition (the only finitely
checkable one of the five equivalent characterizations); nilpotency of each
R(e_i) (an image chain over the integers, shared with the nil-set probe) and
invertibility of Id + R(e_i) are recomputed as witnesses, and a disagreement
raises InternalInconsistencyError since it would contradict the equivalence
theorem rather than the input.

The maximal solvable/left-nilpotent ideals have no exact general algorithm
at this level: they are saturated from a deterministic probe family and the
result carries an explicit certificate flag.  Sums of solvable (resp.
left-nilpotent) ideals stay solvable (resp. left-nilpotent), so the probed
subspace is always an honest lower bound and itself an ideal of the claimed
kind.

Every radical is computed once per algebra (and per probe seed and sample
count): the public functions here read from the algebra's memo.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .scalars import QQ, ZERO, ONE
from .linalg import Matrix, Subspace, solve
from .algebra import (
    Algebra,
    LieProperties,
    Vec,
    basis_vec,
    is_zero_vec,
    memoized,
    vec,
    vec_add,
)
from .polys import all_roots_real

DEFAULT_SEED = 0xC0FFEE
DEFAULT_SAMPLES = 32


class Certificate(Enum):
    EXACT = "exact"
    HEURISTIC_LOWER_BOUND = "heuristic-lower-bound"


class NotLeftSymmetricError(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"input is not left-symmetric; witness triple {witness}")


class InternalInconsistencyError(RuntimeError):
    """Two exact computations disagree, or a certificate fails its check --
    for example completeness witnesses that would falsify the equivalence of
    the completeness conditions.  It signals a bug, never bad input, and
    must never be swallowed (the CLI exits 3)."""


def _require_lsa(A: Algebra):
    w = A.left_symmetry_witness()
    if w is not None:
        raise NotLeftSymmetricError(w)


def trace_vector(A: Algebra) -> Vec:
    """The linear functional x -> tr R(x) as a coefficient vector."""
    return tuple(R.trace() for R in A.right_ops())


@memoized
def trace_subspace(A: Algebra) -> Subspace:
    """T(A) = {x : tr R(x) = 0}; dim >= n - 1 since the condition is linear."""
    t = trace_vector(A)
    if is_zero_vec(t):
        return Subspace.full(A.dim)
    return Matrix([t]).kernel()


@dataclass(frozen=True)
class CompletenessReport:
    complete: bool
    basis_traces: tuple
    right_ops_nilpotent: bool
    id_plus_right_invertible: bool


def _seeded_probes(n: int, seed: int, samples: int) -> list[Vec]:
    """The basis, then ``samples`` vectors with entries in -3..3 from Random(seed)."""
    rng = random.Random(seed)
    return [basis_vec(n, i) for i in range(1, n + 1)] + [
        vec([rng.randint(-3, 3) for _ in range(n)]) for _ in range(samples)
    ]


@memoized
def _right_nilpotent(A: Algebra, x: Vec) -> bool:
    """Whether R(x) is nilpotent; each probe is tested once per algebra."""
    return A.right_matrix(x).is_nilpotent()


@memoized
def is_complete(A: Algebra, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> CompletenessReport:
    """Complete iff tr R(x) = 0 for all x (linear, so basis traces decide).

    Cross-checks: every R(e_i) nilpotent (the image-chain test, shared with
    the nil-set probe) and Id + R(x) nonsingular on the basis and seeded
    samples.  For a complete algebra all three must agree; disagreement is
    an internal error.
    """
    _require_lsa(A)
    n = A.dim
    traces = trace_vector(A)
    complete = is_zero_vec(traces)
    nilpotent = all(_right_nilpotent(A, basis_vec(n, i)) for i in range(1, n + 1))
    invertible = all(
        (Matrix.identity(n) + A.right_matrix(x)).rank() == n
        for x in _seeded_probes(n, seed, samples)
    )
    if complete and not (nilpotent and invertible):
        raise InternalInconsistencyError(
            "trace condition says complete but a right multiplication is "
            "not nilpotent or Id + R(x) is singular"
        )
    if not complete and nilpotent:
        raise InternalInconsistencyError(
            "all basis right multiplications nilpotent but a basis trace "
            "is nonzero"
        )
    return CompletenessReport(complete, traces, nilpotent, invertible)


def _constrained_descent(A: Algebra, W: Subspace, side: str) -> Subspace:
    """Largest subspace of W invariant under ``A.side_ops(side)``: the
    exact descending fixed point I -> {x in I : M x in I for every M},
    at most dim A steps."""
    ops = A.side_ops(side)
    current = W
    while current.dim:
        eqs = current.equations()
        # x in the next term  <=>  E x = 0 and (E M) x = 0 for every M
        rows = [row for M in ops for row in (eqs * M).data]
        nxt = Matrix(list(eqs.data) + rows, cols=A.dim).kernel()
        if nxt == current:
            break
        current = nxt
    return current


def largest_left_ideal_in(A: Algebra, W: Subspace) -> Subspace:
    return _constrained_descent(A, W, "left")


def largest_two_sided_ideal_in(A: Algebra, W: Subspace) -> Subspace:
    return _constrained_descent(A, W, "two_sided")


def is_ideal(A: Algebra, I: Subspace, side: str = "two_sided") -> bool:
    return I.is_invariant(A.side_ops(side))


@dataclass(frozen=True)
class KoszulReport:
    subspace: Subspace
    is_right_ideal: bool
    is_two_sided_ideal: bool


@memoized
def koszul_radical(A: Algebra) -> KoszulReport:
    """rad(A): the largest left ideal contained in T(A).

    The right-ideal and two-sided flags are always reported; the central
    counterexample of the theory is exactly a rad(A) that fails them.
    """
    rad = largest_left_ideal_in(A, trace_subspace(A))
    right = is_ideal(A, rad, "right")
    return KoszulReport(rad, right, right)  # left-ideal by construction


def trace_form_gram(A: Algebra) -> Matrix:
    n = A.dim
    rights = A.right_ops()
    return Matrix(
        [[(rights[i] * rights[j]).trace() for j in range(n)] for i in range(n)]
    )


@memoized
def trace_form_radical(A: Algebra) -> Subspace:
    """A_perp: kernel of the symmetric Gram matrix tr R(e_i) R(e_j)."""
    return trace_form_gram(A).kernel()


def _require_two_sided(A: Algebra, I: Subspace):
    if not is_ideal(A, I, "two_sided"):
        raise ValueError("subspace is not a two-sided ideal")


def is_solvable_ideal(A: Algebra, I: Subspace) -> bool:
    """I^(k+1) = I^(k) . I^(k) reaches 0.  The chain is decreasing because
    I is an ideal, so it stabilizes within dim A steps."""
    _require_two_sided(A, I)
    return _derived_series_vanishes(A, I)


def _derived_series_vanishes(A: Algebra, I: Subspace) -> bool:
    """is_solvable_ideal for an I already known to be a two-sided ideal."""
    return A.power_series(I)[-1].dim == 0


def is_left_nilpotent_ideal(A: Algebra, I: Subspace) -> bool:
    """The chain I, I.I, I.(I.I), ... (left multiplications from I) reaches 0."""
    _require_two_sided(A, I)
    return _left_powers_vanish(A, I)


def _left_powers_vanish(A: Algebra, I: Subspace) -> bool:
    """is_left_nilpotent_ideal for an I already known to be a two-sided ideal."""
    return A.power_series(I, left=I)[-1].dim == 0


def ideal_generated(A: Algebra, seed_vectors, side: str = "two_sided") -> Subspace:
    """Smallest ideal of the requested sidedness containing the input: the
    span of the input spun under ``A.side_ops(side)``, which is an ideal of
    that side by construction (see ``Subspace.spin``)."""
    if isinstance(seed_vectors, Subspace):
        vecs = seed_vectors.basis_vectors()
    elif seed_vectors and not isinstance(seed_vectors[0], (tuple, list)):
        vecs = [tuple(seed_vectors)]
    else:
        vecs = [tuple(v) for v in seed_vectors]
    return Subspace.from_vectors(A.dim, vecs).spin(A.side_ops(side))


def _probe_vectors(n: int, rng: random.Random, samples: int) -> list[Vec]:
    probes = [basis_vec(n, i) for i in range(1, n + 1)]
    probes += [
        vec_add(basis_vec(n, i), basis_vec(n, j))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    probes += [
        vec([rng.randint(-3, 3) for _ in range(n)]) for _ in range(samples)
    ]
    return [p for p in probes if not is_zero_vec(p)]


@memoized
def solvable_radical(
    A: Algebra, seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES
) -> tuple[Subspace, Certificate]:
    """Probe saturation for sol(A): sum the solvable two-sided ideals
    generated by the probe family, then repeat in the quotient (solvable by
    solvable is solvable) until nothing grows."""
    rng = random.Random(seed)
    n = A.dim
    total = Subspace.zero(n)
    quotient_zero_product = False
    while total.dim < n:
        if total.dim == 0:
            Q, project, lift = A, (lambda v: v), (lambda v: v)
        else:
            Q, project, lift = A.quotient(total)
        if Q.is_trivial():
            quotient_zero_product = True
        found = []
        for p in _probe_vectors(Q.dim, rng, samples):
            I = ideal_generated(Q, p, "two_sided")
            if 0 < I.dim and _derived_series_vanishes(Q, I):
                found.extend(I.basis_vectors())
        if not found:
            break
        lifted = [lift(v) for v in Subspace.from_vectors(Q.dim, found).basis_vectors()]
        new_total = Subspace.from_vectors(n, list(total.basis.data) + lifted)
        if new_total == total:
            break
        total = new_total
    status = (
        Certificate.EXACT
        if total.dim == n or quotient_zero_product
        else Certificate.HEURISTIC_LOWER_BOUND
    )
    return total, status


@memoized
def nil_radical(
    A: Algebra, seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES
) -> tuple[Subspace, Certificate]:
    """Probe saturation for nil(A), the maximal left-nilpotent ideal.

    Exact shortcuts: (a) if the commutator Lie algebra is nilpotent,
    nil(A) = rad(A) exactly; (b) nil(A) is a two-sided ideal inside rad(A),
    so if the probed sum reaches the largest two-sided ideal contained in
    rad(A) -- in particular if that ideal is 0 -- the answer is exact.

    No quotient iteration here: left-nilpotent extensions of left-nilpotent
    ideals need not be left-nilpotent, so only the sum lemma is sound.
    """
    _require_lsa(A)
    kos = koszul_radical(A).subspace
    if A.commutator_lie().properties().nilpotent:
        return kos, Certificate.EXACT
    upper = largest_two_sided_ideal_in(A, kos)
    rng = random.Random(seed)
    n = A.dim
    members: list[Vec] = []
    total = Subspace.zero(n)
    for p in _probe_vectors(n, rng, samples):
        if total == upper:
            break
        I = ideal_generated(A, p, "two_sided")
        if 0 < I.dim and _left_powers_vanish(A, I):
            members.extend(I.basis_vectors())
            total = Subspace.from_vectors(n, members)
    if total.dim > 0 and not is_left_nilpotent_ideal(A, total):
        raise InternalInconsistencyError(
            "sum of left-nilpotent ideals failed the left-nilpotency test"
        )
    status = Certificate.EXACT if total == upper else Certificate.HEURISTIC_LOWER_BOUND
    return total, status


@dataclass(frozen=True)
class NilProbeReport:
    members: tuple
    span: Subspace
    claims_exact_set: bool


@memoized
def nil_set_probe(
    A: Algebra, seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES
) -> NilProbeReport:
    """Membership probe for S = {a : R(a) nilpotent}, each probe tested by
    the image chain of ``Matrix.is_nilpotent``.

    S is only known to be a subspace when the commutator Lie algebra is
    nilpotent (then S equals the radical); otherwise the span of confirmed
    members is reported as a probe, not as S."""
    n = A.dim
    probes = _seeded_probes(n, seed, samples)
    members = tuple(p for p in probes if _right_nilpotent(A, p))
    span = Subspace.from_vectors(n, members)
    exact = A.is_left_symmetric() and A.commutator_lie().properties().nilpotent
    return NilProbeReport(members, span, exact)


@dataclass(frozen=True)
class RadicalReport:
    T_A: Subspace
    koszul: KoszulReport
    trace_form_rad: Subspace
    sol_rad: Subspace
    sol_status: Certificate
    nil_rad: Subspace
    nil_status: Certificate
    nil_probe: NilProbeReport
    complete: bool
    completeness: CompletenessReport
    lie: LieProperties
    inclusions_hold: bool


def radical_tower(
    A: Algebra, seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES
) -> RadicalReport:
    """All radicals of an LSA plus the inclusion chain
    nil <= rad <= A_perp <= T(A), checked by explicit containment."""
    _require_lsa(A)
    T = trace_subspace(A)
    kos = koszul_radical(A)
    perp = trace_form_radical(A)
    sol, sol_status = solvable_radical(A, seed, samples)
    nil, nil_status = nil_radical(A, seed, samples)
    probe = nil_set_probe(A, seed, samples)
    comp = is_complete(A, samples, seed)
    lie = A.commutator_lie().properties()
    inclusions = (
        kos.subspace.contains(nil)
        and perp.contains(kos.subspace)
        and T.contains(perp)
    )
    return RadicalReport(
        T_A=T,
        koszul=kos,
        trace_form_rad=perp,
        sol_rad=sol,
        sol_status=sol_status,
        nil_rad=nil,
        nil_status=nil_status,
        nil_probe=probe,
        complete=comp.complete,
        completeness=comp,
        lie=lie,
        inclusions_hold=inclusions,
    )


@dataclass(frozen=True)
class ClanReport:
    form_symmetric: bool
    form_positive: bool
    eigen_real_probe: bool
    unit: Vec | None


def clan_check(
    A: Algebra, seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES
) -> ClanReport:
    """The two clan conditions plus existence of a two-sided unit.

    s(a) = tr L(a).  form_symmetric checks s(a.b) = s(b.a) on basis pairs
    (a theorem for LSAs: tr of a commutator of left multiplications
    vanishes); form_positive is positive definiteness of (a,b) -> s(a.b) by
    Sylvester's criterion, exact; eigen_real_probe runs the all-roots-real
    test on char_poly(L(e_i)) and seeded samples; unit solves the linear
    system e.e_i = e_i.e = e_i."""
    _require_lsa(A)
    n = A.dim
    lefts = A.left_ops()

    def s_of(x: Vec):
        return A.left_matrix(x).trace()

    sym = all(
        s_of(A.prod_basis_vec(i, j)) == s_of(A.prod_basis_vec(j, i))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )
    gram = Matrix(
        [
            [s_of(A.prod_basis_vec(i, j)) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
    )
    positive = True
    for k in range(1, n + 1):
        minor = Matrix([row[:k] for row in gram.data[:k]])
        if minor.det() <= 0:
            positive = False
            break
    rng = random.Random(seed)
    eig_probes = list(lefts) + [
        A.left_matrix(vec([rng.randint(-3, 3) for _ in range(n)]))
        for _ in range(samples)
    ]
    eigen_real = all(
        all_roots_real(L.char_poly()) for L in eig_probes if not L.is_zero()
    )
    # unit: 2n^2 linear conditions on e
    rows = []
    rhs = []
    for i, (Li, Ri) in enumerate(zip(lefts, A.right_ops()), start=1):
        e_i = basis_vec(n, i)
        # e . e_i = e_i: row block R(e_i)^T acting... e.e_i = R(e_i) e
        for r in range(n):
            rows.append(Ri.data[r])
            rhs.append(e_i[r])
        for r in range(n):
            rows.append(Li.data[r])
            rhs.append(e_i[r])
    unit = solve(Matrix(rows), rhs)
    return ClanReport(sym, positive, eigen_real, unit)


def helmstetter_extension(A: Algebra) -> Algebra:
    """B = End(A) + A with product
    (f,a).(g,b) = (fg + [L(a), g], a.b + f(b) + g(a)).

    Basis: E_pq at index (p-1)n + q, then e_i at n^2 + i.  The output is
    left-symmetric whenever A is; if A is not complete the Koszul radical of
    B vanishes, and for complete A with nonzero product rad(B) fails the
    right-ideal flag."""
    n = A.dim
    dim_b = n * n + n

    def E(p, q):  # 1-based matrix unit index
        return (p - 1) * n + q

    def e(i):
        return n * n + i

    table: dict = {}

    def add(i, j, k, c):
        c = QQ(c)
        if c == 0:
            return
        entry = table.setdefault((i, j), {})
        entry[k] = entry.get(k, ZERO) + c
        if entry[k] == 0:
            del entry[k]

    # (E_pq, 0)(E_rs, 0) = (E_pq E_rs, 0) = delta_qr (E_ps, 0)
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            for s in range(1, n + 1):
                add(E(p, q), E(q, s), E(p, s), ONE)
    # (E_pq, 0)(0, e_j) = (0, E_pq e_j) = delta_qj (0, e_p)
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            add(E(p, q), e(q), e(p), ONE)
    # (0, e_i)(E_rs, 0) = ([L(e_i), E_rs], E_rs e_i) = ([L, E_rs], delta_si e_r)
    for i, L in enumerate(A.left_ops(), start=1):
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                # L E_rs = sum_p L[p-1][r-1] E_ps ; E_rs L = sum_q L[s-1][q-1] E_rq
                for p in range(1, n + 1):
                    add(e(i), E(r, s), E(p, s), L.data[p - 1][r - 1])
                for q in range(1, n + 1):
                    add(e(i), E(r, s), E(r, q), -L.data[s - 1][q - 1])
                if s == i:
                    add(e(i), E(r, s), e(r), ONE)
    # (0, e_i)(0, e_j) = (0, e_i . e_j)
    for (i, j), entry in A.table.items():
        for k, c in entry.items():
            add(e(i), e(j), e(k), c)
    return Algebra(f"End({A.name})+{A.name}", dim_b, table)
