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

from .scalars import QQ, ZERO, ONE
from .linalg import Matrix, Subspace
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
    """The degree-raising coboundary of the left-symmetric complex."""
    p = f.degree
    n = A.dim
    if f.base_dim != n:
        raise ValueError("cochain base dimension does not match the algebra")
    if p > MAX_LSA_DEGREE:
        raise DegreeError(f"coboundary computed for degree <= {MAX_LSA_DEGREE} only")
    prod = [[A.prod_basis_vec(i + 1, j + 1) for j in range(n)] for i in range(n)]
    brk = [
        [
            tuple(a - b for a, b in zip(prod[i][j], prod[j][i]))
            for j in range(n)
        ]
        for i in range(n)
    ]
    out = []
    for args in itertools.product(range(n), repeat=p + 1):
        val = [ZERO] * n
        for i in range(1, p + 1):
            sign = 1 if i % 2 else -1
            xi = args[i - 1]
            # x_i . f(..x_i dropped.., x_{p+1})
            fv = f.value(args[: i - 1] + args[i:])
            for k in range(n):
                if fv[k]:
                    row = prod[xi][k]
                    c = fv[k] if sign > 0 else -fv[k]
                    for m in range(n):
                        if row[m]:
                            val[m] += c * row[m]
            # f(..x_i dropped.., x_i) . x_{p+1}
            fv = f.value(args[: i - 1] + args[i : p] + (xi,))
            last = args[p]
            for k in range(n):
                if fv[k]:
                    row = prod[k][last]
                    c = fv[k] if sign > 0 else -fv[k]
                    for m in range(n):
                        if row[m]:
                            val[m] += c * row[m]
            # - f(..x_i dropped.., x_i . x_{p+1})
            head = args[: i - 1] + args[i : p]
            pv = prod[xi][args[p]]
            for k in range(n):
                if pv[k]:
                    fv = f.value(head + (k,))
                    c = pv[k] if sign > 0 else -pv[k]
                    for m in range(n):
                        if fv[m]:
                            val[m] -= c * fv[m]
        for i in range(1, p + 1):
            for j in range(i + 1, p + 1):
                sign = 1 if (i + j) % 2 == 0 else -1
                bv = brk[args[i - 1]][args[j - 1]]
                rest = tuple(
                    a for t, a in enumerate(args) if t not in (i - 1, j - 1)
                )
                for k in range(n):
                    if bv[k]:
                        fv = f.value((k,) + rest)
                        c = bv[k] if sign > 0 else -bv[k]
                        for m in range(n):
                            if fv[m]:
                                val[m] += c * fv[m]
        out.extend(val)
    return Cochain(n, p + 1, tuple(out))


def _coboundary_rows(A: Algebra, p: int):
    """The matrix of the degree-p coboundary as sparse rows
    {column -> value}; row index = flat(output args)*n + component."""
    n = A.dim
    if p == 0:
        return [], n**p * n
    rows: dict[int, dict[int, object]] = {}

    def flat(args: tuple[int, ...]) -> int:
        idx = 0
        for a in args:
            idx = idx * n + a
        return idx

    def add(out_args, component, col, value):
        if value == 0:
            return
        r = flat(out_args) * n + component
        row = rows.setdefault(r, {})
        row[col] = row.get(col, ZERO) + value
        if row[col] == 0:
            del row[col]

    prod = [[A.prod_basis(i + 1, j + 1) for j in range(n)] for i in range(n)]
    for b in itertools.product(range(n), repeat=p):
        for c in range(n):
            col = flat(b) * n + c
            for i in range(1, p + 1):
                sign = ONE if i % 2 else -ONE
                for a in range(n):
                    # sum 1: output (b with a inserted at slot i), component from e_a . e_c
                    t = b[: i - 1] + (a,) + b[i - 1 :]
                    for k, v in prod[a][c].items():
                        add(t, k - 1, col, sign * v)
                    # sum 2: f args (b[:p-1], b[p-1]) where x_i = b[p-1]
                    t2 = b[: i - 1] + (b[p - 1],) + b[i - 1 : p - 1] + (a,)
                    for k, v in prod[c][a].items():
                        add(t2, k - 1, col, sign * v)
                    # sum 3: last f-arg is the product x_i . x_{p+1}
                    for d in range(n):
                        coeff = prod[a][d].get(b[p - 1] + 1)
                        if coeff:
                            t3 = b[: i - 1] + (a,) + b[i - 1 : p - 1] + (d,)
                            add(t3, c, col, -sign * coeff)
            for i in range(1, p + 1):
                for j in range(i + 1, p + 1):
                    sign = ONE if (i + j) % 2 == 0 else -ONE
                    for a in range(n):
                        for d in range(n):
                            coeff = prod[a][d].get(b[0] + 1, ZERO) - prod[d][a].get(
                                b[0] + 1, ZERO
                            )
                            if coeff == 0:
                                continue
                            rest = b[1:]
                            # insert a at slot i-1, then d at slot j-1
                            t4 = rest[: i - 1] + (a,) + rest[i - 1 :]
                            t4 = t4[: j - 1] + (d,) + t4[j - 1 :]
                            add(t4, c, col, sign * coeff)
    return list(rows.values()), n**p * n


@memoized
def _coboundary_rank(A: Algebra, p: int) -> int:
    """rank d_p, computed once per algebra; the rows themselves are dropped."""
    rows, _ = _coboundary_rows(A, p)
    return sparse_rank(rows)


def sparse_rank(rows) -> int:
    pivots: dict[int, dict[int, object]] = {}
    rank = 0
    for row in rows:
        r = dict(row)
        while r:
            c = min(r)
            if c in pivots:
                f = r.pop(c)
                for cc, vv in pivots[c].items():
                    nv = r.get(cc, ZERO) - f * vv
                    if nv:
                        r[cc] = nv
                    else:
                        r.pop(cc, None)
            else:
                inv = ONE / r[c]
                pivots[c] = {cc: vv * inv for cc, vv in r.items() if cc != c}
                rank += 1
                break
    return rank


@dataclass(frozen=True)
class CohomologyDims:
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int


def lsa_cohomology(A: Algebra, p: int) -> CohomologyDims:
    """dim Z^p, B^p, H^p of the left-symmetric complex, exactly.  The rank
    of each d_q is computed once per algebra and shared between degrees."""
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
