"""Cochain complexes: the left-symmetric coboundary with exact cohomology
ranks, and the (graded) composition products on multilinear maps.

A degree-p cochain on an n-dimensional base is a dense rank-(p+1) tensor:
entry (i_1..i_p, out) is the e_out coefficient of f(e_{i_1},...,e_{i_p}).
Degree-0 cochains are constants (vectors).

The coboundary is the four-sum operator

    (d f)(x_1..x_{p+1}) =   sum_i (-1)^(i+1) x_i . f(..x_i dropped.., x_{p+1})
                          + sum_i (-1)^(i+1) f(..x_i dropped.., x_i) . x_{p+1}
                          - sum_i (-1)^(i+1) f(..x_i dropped.., x_i . x_{p+1})
                          + sum_{i<j} (-1)^(i+j) f([x_i,x_j], ..x_i,x_j dropped..)

with [x,y] = x.y - y.x; in the bracket sum the dropped positions run over
the first p arguments only.  d(d(f)) = 0 whenever the base product is
left-symmetric (degree 1 is a short computation from the symmetrized
associator; higher degrees are property-tested exhaustively at desk sizes).

Each entry of the matrix of d_p is a signed sum of structure constants, so
D d_p is an integer matrix for D the lcm of their denominators.  There is
one coboundary operator: the sparse integer rows of D d_p.  Cohomology
ranks come from fraction-free elimination of those rows over Z by
``linalg.echelon``, and ``lsa_coboundary`` applies the same rows to a
cochain and divides by D.

The composition product (f o g) inserts g into each slot of f; its signed
version with weight (-1)^((q-1)(i-1)) at slot i makes the cochain space a
graded right-symmetric algebra for the grading |f| = degree - 1, and the
graded commutator is the classical bracket with d(f) = -[[mu, f]] for an
associative multiplication cochain mu.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .scalars import QQ, ZERO
from .linalg import Matrix, Subspace, echelon
from .algebra import Algebra, Vec, basis_vec, memoized

MAX_LSA_DEGREE = 3
MAX_COMPOSE_ENTRIES = 4**5


class DegreeError(ValueError):
    pass


class ResourceBoundError(ValueError):
    pass


class NotAssociativeError(ValueError):
    pass


@dataclass(frozen=True)
class Cochain:
    base_dim: int
    degree: int
    tensor: tuple

    def __post_init__(self):
        expected = self.base_dim ** self.degree * self.base_dim
        if len(self.tensor) != expected:
            raise ValueError(
                f"tensor length {len(self.tensor)} != {expected} for "
                f"degree {self.degree} over dim {self.base_dim}"
            )

    @property
    def grading(self) -> int:
        return self.degree - 1

    def _flat(self, args: tuple[int, ...]) -> int:
        idx = 0
        for a in args:
            idx = idx * self.base_dim + a
        return idx

    def value(self, args: tuple[int, ...]) -> Vec:
        """f(e_{args}) with 0-based argument indices."""
        n = self.base_dim
        base = self._flat(args) * n
        return self.tensor[base : base + n]

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        return Cochain(
            self.base_dim,
            self.degree,
            tuple(a + b for a, b in zip(self.tensor, other.tensor)),
        )

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        return Cochain(
            self.base_dim,
            self.degree,
            tuple(a - b for a, b in zip(self.tensor, other.tensor)),
        )

    def scale(self, c) -> "Cochain":
        c = QQ(c)
        return Cochain(self.base_dim, self.degree, tuple(c * a for a in self.tensor))

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.tensor)

    def _compat(self, other: "Cochain"):
        if (self.base_dim, self.degree) != (other.base_dim, other.degree):
            raise ValueError("cochain shape mismatch")

    @classmethod
    def zero(cls, base_dim: int, degree: int) -> "Cochain":
        return cls(base_dim, degree, (ZERO,) * (base_dim**degree * base_dim))

    @classmethod
    def from_function(cls, base_dim: int, degree: int, func) -> "Cochain":
        entries = []
        for args in itertools.product(range(base_dim), repeat=degree):
            entries.extend(QQ(x) for x in func(args))
        return cls(base_dim, degree, tuple(entries))

    @classmethod
    def constant(cls, v: Vec) -> "Cochain":
        return cls(len(v), 0, tuple(QQ(x) for x in v))

    @classmethod
    def identity(cls, base_dim: int) -> "Cochain":
        return cls.from_function(
            base_dim, 1, lambda args: basis_vec(base_dim, args[0] + 1)
        )

    @classmethod
    def multiplication(cls, A: Algebra) -> "Cochain":
        return cls.from_function(
            A.dim, 2, lambda args: A.prod_basis_vec(args[0] + 1, args[1] + 1)
        )

    @classmethod
    def random(cls, base_dim: int, degree: int, rng: random.Random, lo=-3, hi=3):
        size = base_dim**degree * base_dim
        return cls(base_dim, degree, tuple(QQ(rng.randint(lo, hi)) for _ in range(size)))


def lsa_coboundary(A: Algebra, f: Cochain) -> Cochain:
    """The degree-raising coboundary of the left-symmetric complex, applied
    as the matrix that the cohomology ranks are computed from."""
    p = f.degree
    n = A.dim
    if f.base_dim != n:
        raise ValueError("cochain base dimension does not match the algebra")
    if p > MAX_LSA_DEGREE:
        raise DegreeError(f"coboundary computed for degree <= {MAX_LSA_DEGREE} only")
    rows, scale = _coboundary_rows(A, p)
    t = f.tensor
    out = [ZERO] * (n ** (p + 1) * n)
    for r, row in rows.items():
        out[r] = sum((v * t[col] for col, v in row.items()), ZERO) / scale
    return Cochain(n, p + 1, tuple(out))


def _coboundary_rows(A: Algebra, p: int):
    """D times the matrix of the degree-p coboundary, as sparse integer rows
    {row -> {column -> int}}, and D, the lcm of the denominators of A's
    structure constants.  Rows and columns follow the cochain tensor layout:
    index = flat(args)*n + component.  Each entry is a signed sum of
    structure constants; entries that cancel are dropped, rows that cancel
    to empty are kept."""
    n = A.dim
    scale, tensor = A._tensor()
    rows: dict[int, dict[int, int]] = {}
    if p == 0:
        return rows, scale

    def flat(args: tuple[int, ...]) -> int:
        idx = 0
        for a in args:
            idx = idx * n + a
        return idx

    def add(out_args, component, col, value):
        r = flat(out_args) * n + component
        row = rows.setdefault(r, {})
        v = row.get(col, 0) + value
        if v:
            row[col] = v
        else:
            del row[col]

    # prod[i][j] = D (e_i . e_j) as {0-based component -> int}
    prod = [[dict(tensor[i].get(j, ())) for j in range(n)] for i in range(n)]
    # hits[m][a]: the (d, D c_ad^m) with c_ad^m != 0; brk[m]: the (a, d, D
    # c_ad^m - D c_da^m) that do not vanish
    hits = [[[(d, prod[a][d][m]) for d in range(n) if m in prod[a][d]]
             for a in range(n)] for m in range(n)]
    brk = [[(a, d, prod[a][d].get(m, 0) - prod[d][a].get(m, 0))
            for a in range(n) for d in range(n)
            if prod[a][d].get(m, 0) != prod[d][a].get(m, 0)] for m in range(n)]
    for b in itertools.product(range(n), repeat=p):
        for c in range(n):
            col = flat(b) * n + c
            for i in range(1, p + 1):
                sign = 1 if i % 2 else -1
                for a in range(n):
                    # sum 1: output (b with a inserted at slot i), component from e_a . e_c
                    t = b[: i - 1] + (a,) + b[i - 1 :]
                    for k, v in prod[a][c].items():
                        add(t, k, col, sign * v)
                    # sum 2: f args (b[:p-1], b[p-1]) where x_i = b[p-1]
                    t2 = b[: i - 1] + (b[p - 1],) + b[i - 1 : p - 1] + (a,)
                    for k, v in prod[c][a].items():
                        add(t2, k, col, sign * v)
                    # sum 3: last f-arg is the product x_i . x_{p+1}
                    for d, coeff in hits[b[p - 1]][a]:
                        t3 = b[: i - 1] + (a,) + b[i - 1 : p - 1] + (d,)
                        add(t3, c, col, -sign * coeff)
            for i in range(1, p + 1):
                for j in range(i + 1, p + 1):
                    sign = 1 if (i + j) % 2 == 0 else -1
                    rest = b[1:]
                    for a, d, coeff in brk[b[0]]:
                        # insert a at slot i-1, then d at slot j-1
                        t4 = rest[: i - 1] + (a,) + rest[i - 1 :]
                        t4 = t4[: j - 1] + (d,) + t4[j - 1 :]
                        add(t4, c, col, sign * coeff)
    return rows, scale


@memoized
def _coboundary_rank(A: Algebra, p: int) -> int:
    """rank d_p, computed once per algebra; the rows themselves are dropped."""
    rows, _ = _coboundary_rows(A, p)
    return sparse_rank(list(rows.values()))


def sparse_rank(rows) -> int:
    """Rank over Q of sparse integer rows {column -> int}: the number of
    pivots ``linalg.echelon`` finds.  The input rows are not changed."""
    return len(echelon(rows))


@dataclass(frozen=True)
class CohomologyDims:
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int


def lsa_cohomology(A: Algebra, p: int) -> CohomologyDims:
    """dim Z^p, B^p, H^p of the left-symmetric complex, exactly.  The rank
    of each d_q is computed once per algebra and shared between degrees.
    A must be left-symmetric (d o d = 0 needs it); this is not checked."""
    if not 1 <= p <= MAX_LSA_DEGREE:
        raise DegreeError(f"degree must be in 1..{MAX_LSA_DEGREE}")
    n = A.dim
    dim_cp = n**p * n
    rank_p = _coboundary_rank(A, p)
    # the displayed complex has vanishing bottom map
    rank_prev = _coboundary_rank(A, p - 1) if p > 1 else 0
    dim_z = dim_cp - rank_p
    return CohomologyDims(p, dim_cp, dim_z, rank_prev, dim_z - rank_prev)


@memoized
def derivation_space(A: Algebra) -> Subspace:
    """Solutions D of D(x.y) = D(x).y + x.D(y), solved directly from the
    Leibniz system (independent of the coboundary code path)."""
    n = A.dim
    rows = []
    for i in range(n):
        for j in range(n):
            pij = A.prod_basis(i + 1, j + 1)
            for out in range(n):
                row = [ZERO] * (n * n)
                # D(e_i . e_j)_out = sum_k c_ij^k D[out][k]
                for k, c in pij.items():
                    row[out * n + (k - 1)] += c
                # - (D(e_i) . e_j)_out = - sum_k D[k][i] (e_k . e_j)_out
                for k in range(n):
                    c = A.prod_basis(k + 1, j + 1).get(out + 1)
                    if c:
                        row[k * n + i] -= c
                # - (e_i . D(e_j))_out
                for k in range(n):
                    c = A.prod_basis(i + 1, k + 1).get(out + 1)
                    if c:
                        row[k * n + j] -= c
                rows.append(row)
    return Matrix(rows, cols=n * n).kernel()


# ---------------------------------------------------------------------------
# Composition products on cochains.
# ---------------------------------------------------------------------------


def _compose_guard(f: Cochain, g: Cochain):
    if f.base_dim != g.base_dim:
        raise ValueError("cochain base dimension mismatch")
    if f.degree < 1:
        raise DegreeError("left factor must have degree >= 1")
    if g.degree < 0:
        raise DegreeError("negative degree")
    n = f.base_dim
    r = f.degree + g.degree - 1
    if n**r * n > MAX_COMPOSE_ENTRIES:
        raise ResourceBoundError(
            f"composition tensor n^{r + 1} = {n ** (r + 1)} exceeds the "
            f"{MAX_COMPOSE_ENTRIES}-entry cap"
        )


def _compose(f: Cochain, g: Cochain, signed: bool) -> Cochain:
    _compose_guard(f, g)
    n = f.base_dim
    p, q = f.degree, g.degree
    r = p + q - 1
    out = []
    for args in itertools.product(range(n), repeat=r):
        val = [ZERO] * n
        for i in range(1, p + 1):
            if signed and (q - 1) % 2 and (i - 1) % 2:
                sign = -1
            else:
                sign = 1
            gv = g.value(args[i - 1 : i - 1 + q])
            pre = args[: i - 1]
            post = args[i - 1 + q :]
            for m in range(n):
                if gv[m]:
                    fv = f.value(pre + (m,) + post)
                    c = gv[m] if sign > 0 else -gv[m]
                    for t in range(n):
                        if fv[t]:
                            val[t] += c * fv[t]
        out.extend(val)
    return Cochain(n, r, tuple(out))


def compose_unsigned(f: Cochain, g: Cochain) -> Cochain:
    """Sum of all slot insertions of g into f, unsigned; the associator of
    this product is symmetric in its last two arguments."""
    return _compose(f, g, signed=False)


def hochschild_compose_signed(f: Cochain, g: Cochain) -> Cochain:
    """Slot insertions weighted by (-1)^((q-1)(i-1)): the graded
    right-symmetric composition."""
    return _compose(f, g, signed=True)


def gerstenhaber_bracket(f: Cochain, g: Cochain) -> Cochain:
    """[[f, g]] = f o g - (-1)^(|f| |g|) g o f (signed composition)."""
    fg = hochschild_compose_signed(f, g)
    gf = hochschild_compose_signed(g, f) if g.degree >= 1 else Cochain.zero(
        f.base_dim, f.degree + g.degree - 1
    )
    if (f.grading * g.grading) % 2:
        return fg + gf
    return fg - gf


def hochschild_d(mu: Cochain, f: Cochain) -> Cochain:
    """d(f) = -[[mu, f]] for an associative multiplication cochain mu."""
    if mu.degree != 2:
        raise ValueError("multiplication cochain must have degree 2")
    if not hochschild_compose_signed(mu, mu).is_zero():
        raise NotAssociativeError("mu o mu != 0: the product is not associative")
    return -gerstenhaber_bracket(mu, f)
