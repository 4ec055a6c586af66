"""Faithful representations from cocycles, and the minimal-faithful-degree
bound suite for nilpotent Lie algebras.

The construction side: 1-cocycle spaces of a representation, the product a
nonsingular cocycle induces (recovering a left-symmetric structure whose
commutator is the prescribed bracket), the degree-(n+1) module K x V built
from a cocycle, and the affine embedding x -> [[L(x), x], [0, 0]].

The counting side: partition numbers by the pentagonal recurrence; the
bound p(n,k) = sum_j C(n-j, k-j) p(j) with its recursion, closed forms and
unimodality; and the asymptotic families, certified with exact rational
arithmetic where possible and outward-rounded intervals for the
transcendental sides (a bound "passes" only when the exact integer clears
the safe endpoint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .scalars import QQ, ZERO, ONE
from .linalg import Matrix, Subspace, solve
from .algebra import Algebra, LieAlgebra, basis_vec
from .radicals import InternalInconsistencyError
from .intervals import Interval, certify_less, exp_interval, pi_interval, sqrt_interval

MAX_PARTITION_ARG = 200
MAX_ASYMPTOTIC_ARG = 120


class RepresentationError(ValueError):
    def __init__(self, pair, message="bracket compatibility fails"):
        self.pair = pair
        super().__init__(f"{message} on basis pair {pair}")


class CocycleError(ValueError):
    pass


class Representation:
    """A Lie algebra homomorphism into gl_d, verified at construction."""

    __slots__ = ("lie", "degree", "images")

    def __init__(self, lie: LieAlgebra, images: Sequence[Matrix]):
        if len(images) != lie.dim:
            raise ValueError("one image matrix per basis element required")
        degree = images[0].rows
        for M in images:
            if M.rows != degree or M.cols != degree:
                raise ValueError("images must be square of equal size")
        self.lie = lie
        self.degree = degree
        self.images = list(images)
        self._verify()

    def _verify(self):
        n = self.lie.dim
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                lhs = self.act(self.lie.bracket_basis(i, j))
                rhs = (
                    self.images[i - 1] * self.images[j - 1]
                    - self.images[j - 1] * self.images[i - 1]
                )
                if lhs != rhs:
                    raise RepresentationError((i, j))

    def act(self, x: Sequence) -> Matrix:
        out = Matrix.zeros(self.degree, self.degree)
        for c, M in zip(x, self.images):
            if c:
                out = out + M.scale(c)
        return out

    def kernel(self) -> Subspace:
        """{x in g : rho(x) = 0}, exactly."""
        cols = []
        for M in self.images:
            cols.append([x for row in M.data for x in row])
        return Matrix.from_columns(cols).kernel()

    def is_faithful(self) -> bool:
        return self.kernel().dim == 0


def adjoint_rep(g: LieAlgebra) -> Representation:
    n = g.dim
    images = [
        Matrix.from_columns(
            [g.bracket_basis(i, j) for j in range(1, n + 1)]
        )
        for i in range(1, n + 1)
    ]
    return Representation(g, images)


def left_regular_rep(A: Algebra) -> Representation:
    """theta = L of a left-symmetric algebra, over its commutator Lie algebra."""
    return Representation(A.commutator_lie(), A.left_ops())


def _hom_flatten(omega: Matrix) -> list:
    """Column-major flattening of a d x n map g -> V: blocks omega(e_1),..."""
    return [omega.data[r][c] for c in range(omega.cols) for r in range(omega.rows)]


def cocycle_space(rep: Representation) -> tuple[Subspace, Subspace]:
    """(Z1, B1) inside Hom(g, M) flattened column-major (dim = n*d).

    Z1: omega([x,y]) = x.omega(y) - y.omega(x); B1: omega(x) = x.m."""
    g, d = rep.lie, rep.degree
    n = g.dim
    rows = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            br = g.bracket_basis(i, j)
            for r in range(d):
                row = [ZERO] * (n * d)
                for c in range(n):
                    if br[c]:
                        row[c * d + r] += br[c]
                # - rho(e_i) omega(e_j) + rho(e_j) omega(e_i)
                for t in range(d):
                    row[(j - 1) * d + t] -= rep.images[i - 1].data[r][t]
                    row[(i - 1) * d + t] += rep.images[j - 1].data[r][t]
                rows.append(row)
    z1 = Matrix(rows, cols=n * d).kernel() if rows else Subspace.full(n * d)
    b_vecs = []
    for m in range(d):
        em = tuple(ONE if t == m else ZERO for t in range(d))
        omega = Matrix.from_columns(
            [rep.images[i].matvec(em) for i in range(n)]
        )
        b_vecs.append(_hom_flatten(omega))
    b1 = Subspace.from_vectors(n * d, b_vecs)
    return z1, b1


def _omega_in_z1(rep: Representation, omega: Matrix) -> bool:
    g = rep.lie
    for i in range(1, g.dim + 1):
        for j in range(i + 1, g.dim + 1):
            br = omega.matvec(g.bracket_basis(i, j))
            ei = omega.matvec(basis_vec(g.dim, i))
            ej = omega.matvec(basis_vec(g.dim, j))
            rhs = tuple(
                a - b
                for a, b in zip(rep.images[i - 1].matvec(ej), rep.images[j - 1].matvec(ei))
            )
            if br != rhs:
                return False
    return True


def lsa_from_cocycle(rep: Representation, phi: Matrix, name: str | None = None) -> Algebra:
    """The product x.y = phi^-1(theta(x) phi(y)) of a nonsingular 1-cocycle:
    left-symmetric with commutator equal to the source bracket."""
    g = rep.lie
    n = g.dim
    if rep.degree != n:
        raise CocycleError("construction needs a module of dimension dim g")
    if phi.rank() != n:
        raise CocycleError("cocycle is singular")
    if not _omega_in_z1(rep, phi):
        raise CocycleError("map is not a 1-cocycle for the representation")
    # phi^-1 via solving phi X = I column by column
    inv_cols = [solve(phi, basis_vec(n, j)) for j in range(1, n + 1)]
    phi_inv = Matrix.from_columns(inv_cols)
    table = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            w = phi_inv.matvec(
                rep.images[i - 1].matvec(phi.matvec(basis_vec(n, j)))
            )
            entry = {k + 1: c for k, c in enumerate(w) if c != 0}
            if entry:
                table[(i, j)] = entry
    A = Algebra(name or f"lsa[{g.name}]", n, table)
    witness = A.left_symmetry_witness()
    if witness is not None:
        raise CocycleError(f"construction failed left-symmetry at {witness}")
    if A.commutator_brackets() != g.brackets:
        raise CocycleError("commutator does not reproduce the source bracket")
    return A


def faithful_extension(rep: Representation, omega: Matrix) -> Representation:
    """The module K x V with action x.(t, v) = (0, x.v + t omega(x)):
    degree d+1, faithful whenever omega is nonsingular (d = dim g)."""
    if omega.rows != rep.degree or omega.cols != rep.lie.dim:
        raise CocycleError("omega must map g into the module")
    if not _omega_in_z1(rep, omega):
        raise CocycleError("omega is not a 1-cocycle for the representation")
    d = rep.degree
    n = rep.lie.dim
    images = []
    for i in range(n):
        M = Matrix.zeros(d + 1, d + 1).row_list()
        for r in range(d):
            M[r + 1][0] = omega.data[r][i]
            for c in range(d):
                M[r + 1][c + 1] = rep.images[i].data[r][c]
        images.append(Matrix(M))
    return Representation(rep.lie, images)


def affine_embedding(A: Algebra) -> Representation:
    """x -> [[L(x), x], [0, 0]]: a homomorphism into the affine Lie algebra
    exactly when A is left-symmetric (failures raise with the violating
    bracket pair)."""
    w = A.left_symmetry_witness()
    if w is not None:
        raise RepresentationError((w[0], w[1]), "input is not left-symmetric")
    n = A.dim
    g = A.commutator_lie()
    images = []
    for i, L in enumerate(A.left_ops(), start=1):
        M = Matrix.zeros(n + 1, n + 1).row_list()
        for r in range(n):
            for c in range(n):
                M[r][c] = L.data[r][c]
        M[i - 1][n] = ONE
        images.append(Matrix(M))
    return Representation(g, images)


# ---------------------------------------------------------------------------
# Partition counting and the bound tables.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _partition(j: int) -> int:
    if j < 0:
        return 0
    if j == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = j - k * (3 * k - 1) // 2
        g2 = j - k * (3 * k + 1) // 2
        if g1 < 0 and g2 < 0:
            break
        term = _partition(g1) + _partition(g2)
        total += term if k % 2 else -term
        k += 1
    return total


def partition_numbers(upto: int) -> list[int]:
    """p(0..upto) by Euler's pentagonal recurrence; upto <= 200."""
    if not 0 <= upto <= MAX_PARTITION_ARG:
        raise ValueError(f"argument must be in 0..{MAX_PARTITION_ARG}")
    return [_partition(j) for j in range(upto + 1)]


def p_nk(n: int, k: int) -> int:
    """p(n,k) = sum_{j=0}^{k} C(n-j, k-j) p(j); 0 <= k <= n <= 200."""
    if not 0 <= k <= n <= MAX_PARTITION_ARG:
        raise ValueError("need 0 <= k <= n <= 200")
    return sum(math.comb(n - j, k - j) * _partition(j) for j in range(k + 1))


def b_nk(n: int, k: int) -> int:
    return math.comb(n + k, k)


CLOSED_FORMS = {
    1: lambda n: n + 1,
    2: lambda n: (n * n + n + 2) // 2,
    3: lambda n: (n**3 + 5 * n) // 6,
    4: lambda n: (n**4 - 2 * n**3 + 11 * n * n - 10 * n + 24) // 24,
    5: lambda n: (n**5 - 5 * n**4 + 25 * n**3 - 55 * n * n + 154 * n - 240) // 120,
}


@dataclass(frozen=True)
class MuBounds:
    n: int
    k: int
    reed: int  # n^k + 1
    binomial: int  # C(n+k, k)
    partition: int  # p(n,k)


def mu_bound_report(n: int, k: int) -> MuBounds:
    """The three upper bounds for the minimal faithful degree of a nilpotent
    Lie algebra of dimension n and class k; the partition bound is never
    worse than the binomial bound, which is never worse than n^k + 1."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    reed = n**k + 1
    binom = b_nk(n, k)
    part = p_nk(n, k)
    if not part <= binom <= reed:
        raise InternalInconsistencyError(
            f"bound ordering violated at (n,k)=({n},{k}): {part}, {binom}, {reed}"
        )
    return MuBounds(n, k, reed, binom, part)


@dataclass(frozen=True)
class MuTable:
    n: int
    rows: tuple  # (k, p(n,k), b(n,k), n^k + 1) for k = 1..n
    partitions: tuple  # p(0..n)


def mu_table(n: int) -> MuTable:
    return MuTable(
        n,
        tuple((k, p_nk(n, k), b_nk(n, k), n**k + 1) for k in range(1, n + 1)),
        tuple(partition_numbers(n)),
    )


@dataclass(frozen=True)
class UnimodalityReport:
    n: int
    peak: int
    monotone_up: bool
    monotone_down: bool


def unimodality_check(n: int) -> UnimodalityReport:
    """Strict increase to k(n) = floor((n+3)/2) and strict decrease after."""
    if n < 4:
        raise ValueError("unimodality statement needs n >= 4")
    peak = (n + 3) // 2
    values = [p_nk(n, k) for k in range(1, n + 1)]
    up = all(values[i] < values[i + 1] for i in range(peak - 1))
    down = all(values[i] > values[i + 1] for i in range(peak - 1, n - 1))
    return UnimodalityReport(n, peak, up, down)


@dataclass(frozen=True)
class AsymptoticReport:
    n_range: tuple
    uniform_two_power: bool  # p(n,k) < TWO_POWER_COEFF * 2^n / sqrt(n)
    diagonal_exp: bool  # p(n-1,n-1) < e^(EXP_RATE sqrt n)
    near_diagonal_exp: bool  # p(n,n-1) < sqrt(n) e^(EXP_RATE sqrt n)
    partial_product: bool  # p(n,k) < C(n,k) prod_{j<=k} (1 - (k/n)^j)^-1


# Two unrelated constants share a name in the classical statements; keep
# them apart here.  The uniform 2^n bound uses the rational 113/40; the
# diagonal growth rate is pi * sqrt(2/3).
TWO_POWER_COEFF = QQ(113, 40)
EXP_RATE_SQUARED = QQ(2, 3)  # (rate/pi)^2


def _exp_rate_sqrt_n(n: int, bits: int) -> Interval:
    # rate * sqrt(n) = pi * sqrt(2n/3)
    return pi_interval(bits).mul(sqrt_interval(EXP_RATE_SQUARED * n, bits))


def asymptotic_bounds_check(n_lo: int, n_hi: int) -> AsymptoticReport:
    """Certify the four asymptotic bound families over n_lo..n_hi <= 120."""
    if not 1 <= n_lo <= n_hi <= MAX_ASYMPTOTIC_ARG:
        raise ValueError(f"range must sit inside 1..{MAX_ASYMPTOTIC_ARG}")
    uniform = True
    diagonal = True
    near_diag = True
    partial = True
    for n in range(n_lo, n_hi + 1):
        # (113/40) 2^n / sqrt(n): interval for the right side
        pmax = max(p_nk(n, k) for k in range(1, n + 1))

        def two_power_side(bits, n=n):
            s = sqrt_interval(QQ(n), bits)
            c = TWO_POWER_COEFF * (1 << n)
            return Interval(c / s.hi, c / s.lo)

        uniform &= certify_less(pmax, two_power_side)
        diagonal &= certify_less(
            p_nk(n - 1, n - 1) if n >= 1 else 0,
            lambda bits, n=n: exp_interval(_exp_rate_sqrt_n(n, bits), bits),
        )
        if n >= 2:
            near_diag &= certify_less(
                p_nk(n, n - 1),
                lambda bits, n=n: exp_interval(_exp_rate_sqrt_n(n, bits), bits).mul(
                    sqrt_interval(QQ(n), bits)
                ),
            )
        # partial products: exact rational comparison
        # p(n,k) < C(n,k) * prod_{j<=k} (1 - (k/n)^j)^-1
        #   <=>  p(n,k) * prod (n^j - k^j) < C(n,k) * prod n^j
        for k in range(2, n):
            num = 1
            den = 1
            for j in range(1, k + 1):
                num *= n**j - k**j
                den *= n**j
            if not p_nk(n, k) * num < math.comb(n, k) * den:
                partial = False
    return AsymptoticReport((n_lo, n_hi), uniform, diagonal, near_diag, partial)


@dataclass(frozen=True)
class MuFormulaResult:
    kind: str
    parameter: int
    value: int
    witness: list | None  # commuting matrix basis for the abelian/Schur kinds


def _schur_witness(d: int) -> list[Matrix]:
    """Commutative subalgebra of M_d of dimension floor(d^2/4) + 1:
    span of the identity and the off-diagonal block E_{r,c}."""
    a = (d + 1) // 2
    basis = [Matrix.identity(d)]
    for r in range(a):
        for c in range(a, d):
            M = Matrix.zeros(d, d).row_list()
            M[r][c] = ONE
            basis.append(Matrix(M))
    return basis


def mu_formulas(kind: str, parameter: int) -> MuFormulaResult:
    """Closed forms for the minimal faithful degree:
    abelian(n), heisenberg(m), two_step_center1(n), schur_jacobson(d)."""
    if parameter < 1:
        raise ValueError("parameter must be >= 1")
    if kind == "abelian":
        n = parameter
        value = math.isqrt(4 * (n - 1))
        if value * value < 4 * (n - 1):
            value += 1
        value = max(1, value)
        witness = _schur_witness(value)
        _check_commutative_witness(witness, value, needed_dim=n)
        return MuFormulaResult(kind, n, value, witness)
    if kind == "heisenberg":
        return MuFormulaResult(kind, parameter, parameter + 2, None)
    if kind == "two_step_center1":
        n = parameter
        if n % 2 == 0 or n < 3:
            raise ValueError("a 2-step algebra with 1-dim center has odd dim >= 3")
        return MuFormulaResult(kind, n, (n + 3) // 2, None)
    if kind == "schur_jacobson":
        d = parameter
        value = d * d // 4 + 1
        witness = _schur_witness(d)
        _check_commutative_witness(witness, d, needed_dim=value)
        return MuFormulaResult(kind, d, value, witness)
    raise ValueError(f"unknown kind {kind!r}")


def _check_commutative_witness(basis: list[Matrix], d: int, needed_dim: int):
    """The sharp witness has dimension floor(d^2/4) + 1, must cover the
    requested dimension, and must actually commute."""
    if len(basis) != d * d // 4 + 1:
        raise InternalInconsistencyError("witness dimension mismatch")
    if len(basis) < needed_dim:
        raise InternalInconsistencyError("witness too small for the requested dimension")
    flat = [tuple(x for row in M.data for x in row) for M in basis]
    if Subspace.from_vectors(d * d, flat).dim != len(basis):
        raise InternalInconsistencyError("witness basis is linearly dependent")
    for i, M in enumerate(basis):
        for N in basis[i + 1 :]:
            if M * N != N * M:
                raise InternalInconsistencyError("witness basis is not commutative")
