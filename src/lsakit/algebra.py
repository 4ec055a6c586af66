"""Finite-dimensional algebras given by structure constants.

An :class:`Algebra` is a bilinear product on K^n recorded sparsely as
c_{ij}^k for e_i . e_j = sum_k c_{ij}^k e_k (1-based indices, zero entries
absent, so table equality is structural).  All the defining identities --
left/right symmetry, the Novikov identity, associativity -- are decided
exactly on basis triples, which suffices by multilinearity.

Algebras are immutable: the table is a read-only mapping of read-only rows
and attributes cannot be rebound.  That makes every invariant a function of
the object alone, so each is computed once and kept in the object's private
memo (see :func:`memoized`).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .scalars import QQ, ZERO, ONE
from .linalg import Matrix, Subspace

Vec = tuple


def vec(entries: Iterable) -> Vec:
    return tuple(QQ(x) for x in entries)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def basis_vec(n: int, i: int) -> Vec:
    """i is 1-based, matching the structure-constant convention."""
    return tuple(ONE if j == i - 1 else ZERO for j in range(n))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vec) -> Vec:
    c = QQ(c)
    return tuple(c * a for a in v)


def is_zero_vec(v: Vec) -> bool:
    return all(a == 0 for a in v)


class JacobiError(ValueError):
    """The commutator of the given table violates the Jacobi identity."""

    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"Jacobi identity fails on basis triple {triple}")


def memoized(fn):
    """Compute ``fn(owner, ...)`` once per owner and argument values.

    The answer is kept in ``owner._memo`` under fn's name and its bound
    arguments with defaults filled in, so ``f(A)`` and ``f(A, seed=DEFAULT)``
    share one entry.  Owners are immutable, so an entry never goes stale;
    a call that raises stores nothing."""
    signature = inspect.signature(fn)
    name = fn.__qualname__

    @functools.wraps(fn)
    def cached(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        owner, *rest = bound.arguments.values()
        key = (name, *rest)
        memo = owner._memo
        if key not in memo:
            memo[key] = fn(*args, **kwargs)
        return memo[key]

    return cached


class _Frozen:
    """Attributes are set once, in ``__init__``, through ``_freeze``."""

    __slots__ = ()

    def _freeze(self, **attrs):
        for attr, value in attrs.items():
            object.__setattr__(self, attr, value)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, attr, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {attr!r}")


def _normalize_table(dim: int, table: Mapping) -> MappingProxyType:
    out: dict[tuple[int, int], MappingProxyType] = {}
    for (i, j), entry in table.items():
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ValueError(f"index ({i},{j}) outside 1..{dim}")
        row = {}
        for k, c in entry.items():
            if not (1 <= k <= dim):
                raise ValueError(f"output index {k} outside 1..{dim}")
            c = QQ(c)
            if c != 0:
                row[k] = c
        if row:
            out[(i, j)] = MappingProxyType(row)
    return MappingProxyType(out)


class Algebra(_Frozen):
    """Structure-constant algebra over the rationals; immutable."""

    __slots__ = ("name", "dim", "table", "_memo")

    def __init__(self, name: str, dim: int, table: Mapping):
        if dim < 1:
            raise ValueError("algebra dimension must be >= 1")
        self._freeze(name=name, dim=dim, table=_normalize_table(dim, table))

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.dim == other.dim
            and self.table == other.table
        )

    def __repr__(self):
        return f"Algebra({self.name!r}, dim={self.dim}, {len(self.table)} products)"

    # -- products ----------------------------------------------------------

    def prod_basis(self, i: int, j: int) -> dict:
        """e_i . e_j as a sparse map k -> coefficient (1-based)."""
        return self.table.get((i, j), {})

    def prod_basis_vec(self, i: int, j: int) -> Vec:
        out = [ZERO] * self.dim
        for k, c in self.prod_basis(i, j).items():
            out[k - 1] = c
        return tuple(out)

    def multiply(self, x: Sequence, y: Sequence) -> Vec:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector dimension mismatch")
        out = [ZERO] * self.dim
        for i in range(self.dim):
            xi = x[i]
            if not xi:
                continue
            for j in range(self.dim):
                yj = y[j]
                if not yj:
                    continue
                entry = self.table.get((i + 1, j + 1))
                if entry:
                    f = xi * yj
                    for k, c in entry.items():
                        out[k - 1] += f * c
        return tuple(out)

    def associator(self, x: Sequence, y: Sequence, z: Sequence) -> Vec:
        return vec_sub(
            self.multiply(self.multiply(x, y), z),
            self.multiply(x, self.multiply(y, z)),
        )

    def _assoc_basis(self, i: int, j: int, k: int) -> Vec:
        ei, ej, ek = (basis_vec(self.dim, t) for t in (i, j, k))
        return vec_sub(
            self.multiply(self.prod_basis_vec(i, j), ek),
            self.multiply(ei, self.multiply(ej, ek)),
        )

    # -- operators ---------------------------------------------------------

    def left_matrix(self, x: Sequence) -> Matrix:
        n = self.dim
        cols = [self.multiply(x, basis_vec(n, j)) for j in range(1, n + 1)]
        return Matrix.from_columns(cols)

    def right_matrix(self, x: Sequence) -> Matrix:
        n = self.dim
        cols = [self.multiply(basis_vec(n, j), x) for j in range(1, n + 1)]
        return Matrix.from_columns(cols)

    def left_right_ops(self, x: Sequence) -> tuple[Matrix, Matrix]:
        """(L(x), R(x)) with L(x)y = x.y and R(x)y = y.x."""
        return self.left_matrix(x), self.right_matrix(x)

    @memoized
    def left_ops(self) -> tuple[Matrix, ...]:
        """(L(e_1), ..., L(e_n))."""
        n = self.dim
        return tuple(self.left_matrix(basis_vec(n, i)) for i in range(1, n + 1))

    @memoized
    def right_ops(self) -> tuple[Matrix, ...]:
        """(R(e_1), ..., R(e_n))."""
        n = self.dim
        return tuple(self.right_matrix(basis_vec(n, i)) for i in range(1, n + 1))

    @memoized
    def side_ops(self, side: str) -> tuple[Matrix, ...]:
        """The nonzero basis multiplications whose invariant subspaces are the
        ideals of the given side: the L(e_i) for "left", the R(e_i) for
        "right", and both for "two_sided", in the order L(e_1), R(e_1),
        L(e_2), ..."""
        if side == "left":
            ops = self.left_ops()
        elif side == "right":
            ops = self.right_ops()
        elif side == "two_sided":
            ops = tuple(M for LR in zip(self.left_ops(), self.right_ops()) for M in LR)
        else:
            raise ValueError(f"side must be 'left', 'right' or 'two_sided', not {side!r}")
        return tuple(M for M in ops if not M.is_zero())

    def product_span(self, U: Subspace, V: Subspace) -> Subspace:
        """span{u . v : u in U, v in V}."""
        vecs = [self.multiply(u, v) for u in U.basis.data for v in V.basis.data]
        return Subspace.from_vectors(self.dim, [w for w in vecs if any(w)])

    def power_series(self, I: Subspace, left: Subspace | None = None) -> list[Subspace]:
        """I, I^2, I^3, ... with I^(k+1) = I^(k) . I^(k) (the derived series),
        or I^(k+1) = left . I^(k) when ``left`` is given (for left = I, the
        left powers).  Ends at the zero subspace or at the first repeated
        term, after at most dim + 1 products, since a series that is not
        decreasing need not repeat."""
        series = [I]
        for _ in range(self.dim + 1):
            current = series[-1]
            if current.dim == 0:
                break
            nxt = self.product_span(current if left is None else left, current)
            if nxt == current:
                break
            series.append(nxt)
        return series

    # -- identities --------------------------------------------------------

    def opposite(self) -> "Algebra":
        table = {(j, i): dict(entry) for (i, j), entry in self.table.items()}
        return Algebra(f"{self.name}^op", self.dim, table)

    def is_left_symmetric(self) -> bool:
        return self.left_symmetry_witness() is None

    @memoized
    def left_symmetry_witness(self):
        """A violating basis triple (i,j,k) if (x,y,z) != (y,x,z), else None."""
        n = self.dim
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(1, n + 1):
                    if self._assoc_basis(i, j, k) != self._assoc_basis(j, i, k):
                        return (i, j, k)
        return None

    def is_right_symmetric(self) -> bool:
        return self.right_symmetry_witness() is None

    def right_symmetry_witness(self):
        n = self.dim
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(j + 1, n + 1):
                    if self._assoc_basis(i, j, k) != self._assoc_basis(i, k, j):
                        return (i, j, k)
        return None

    def is_associative(self) -> bool:
        n = self.dim
        return all(
            is_zero_vec(self._assoc_basis(i, j, k))
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for k in range(1, n + 1)
        )

    def is_commutative(self) -> bool:
        n = self.dim
        return all(
            self.prod_basis(i, j) == self.prod_basis(j, i)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        )

    def is_trivial(self) -> bool:
        return not self.table

    def novikov_right_witness(self):
        """Violating triple of x o (y o z) = y o (x o z), else None."""
        n = self.dim
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(1, n + 1):
                    ei, ej, ek = (basis_vec(n, t) for t in (i, j, k))
                    lhs = self.multiply(ei, self.multiply(ej, ek))
                    rhs = self.multiply(ej, self.multiply(ei, ek))
                    if lhs != rhs:
                        return (i, j, k)
        return None

    def is_novikov_right(self) -> bool:
        return self.novikov_right_witness() is None

    # -- the commutator Lie algebra ----------------------------------------

    def commutator_brackets(self) -> dict:
        out = {}
        for i in range(1, self.dim + 1):
            for j in range(i + 1, self.dim + 1):
                b = vec_sub(self.prod_basis_vec(i, j), self.prod_basis_vec(j, i))
                if not is_zero_vec(b):
                    out[(i, j)] = b
        return out

    @memoized
    def commutator_lie(self) -> "LieAlgebra":
        """The Lie algebra on [x,y] = x.y - y.x.

        Raises JacobiError if the table is not Lie-admissible; a failure
        signals that the input satisfied neither symmetry identity.
        """
        return LieAlgebra(f"g({self.name})", self.dim, self.commutator_brackets())

    def check_L_is_representation(self, bracket: "LieAlgebra | None" = None) -> bool:
        """L a homomorphism onto the prescribed (default: commutator) bracket,
        and the identity map a 1-cocycle for it.

        With the commutator bracket this is equivalent to left-symmetry; with
        an independently prescribed bracket both halves carry content.
        """
        n = self.dim
        if bracket is not None and bracket.dim != n:
            raise ValueError("bracket dimension mismatch")
        mats = self.left_ops()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                ei, ej = basis_vec(n, i), basis_vec(n, j)
                if bracket is None:
                    br = vec_sub(self.multiply(ei, ej), self.multiply(ej, ei))
                else:
                    br = bracket.bracket(ei, ej)
                # cocycle condition for the identity map: [x,y] = x.y - y.x
                if br != vec_sub(self.multiply(ei, ej), self.multiply(ej, ei)):
                    return False
                lhs = self.left_matrix(br)
                rhs = mats[i - 1] * mats[j - 1] - mats[j - 1] * mats[i - 1]
                if lhs != rhs:
                    return False
        return True

    # -- subquotients --------------------------------------------------------

    def is_subalgebra(self, space: Subspace) -> bool:
        return space.contains(self.product_span(space, space))

    def restrict(self, space: Subspace, name: str | None = None) -> "Algebra":
        """The algebra induced on a multiplicatively closed subspace, in the
        coordinates of its canonical basis."""
        if not self.is_subalgebra(space):
            raise ValueError("subspace is not closed under the product")
        vecs = space.basis_vectors()
        d = len(vecs)
        if d == 0:
            raise ValueError("cannot restrict to the zero subspace")
        table = {}
        for i, u in enumerate(vecs, start=1):
            for j, v in enumerate(vecs, start=1):
                w = self.multiply(u, v)
                # coordinates in an RREF basis are the pivot entries
                entry = {k + 1: w[p] for k, p in enumerate(space.pivots) if w[p] != 0}
                if entry:
                    table[(i, j)] = entry
        return Algebra(name or f"{self.name}|sub", d, table)

    def quotient(self, ideal: Subspace, name: str | None = None):
        """Quotient by a two-sided ideal.

        Returns (Q, project, lift): Q an Algebra on the complement coordinates
        of the ideal's pivot columns, project mapping ambient vectors to Q,
        lift mapping Q vectors back to canonical ambient representatives.
        """
        n = self.dim
        free = [c for c in range(n) if c not in ideal.pivots]
        if not free:
            raise ValueError("quotient by the full space is empty")

        def project(v: Sequence) -> Vec:
            w = ideal.reduce(v)
            return tuple(w[c] for c in free)

        def lift(q: Sequence) -> Vec:
            w = [ZERO] * n
            for c, x in zip(free, q):
                w[c] = x
            return tuple(w)

        d = len(free)
        table = {}
        for a in range(d):
            for b in range(d):
                prod = self.multiply(lift(basis_vec(d, a + 1)), lift(basis_vec(d, b + 1)))
                entry = {
                    k + 1: c for k, c in enumerate(project(prod)) if c != 0
                }
                if entry:
                    table[(a + 1, b + 1)] = entry
        return Algebra(name or f"{self.name}/I", d, table), project, lift


@dataclass(frozen=True)
class LieProperties:
    abelian: bool
    nilpotent: bool
    solvable: bool
    nilpotency_class: int | None
    derived_length: int | None
    center: Subspace


class LieAlgebra(_Frozen):
    """Lie algebra with exact antisymmetric structure constants; immutable.

    The Jacobi identity is verified at construction; an invalid table raises
    JacobiError with a violating basis triple.
    """

    __slots__ = ("name", "dim", "brackets", "_memo")

    def __init__(self, name: str, dim: int, brackets: Mapping):
        if dim < 1:
            raise ValueError("Lie algebra dimension must be >= 1")
        table = {}
        for (i, j), b in brackets.items():
            if i >= j:
                raise ValueError("bracket table must use pairs with i < j")
            v = vec(b)
            if len(v) != dim:
                raise ValueError("bracket vector dimension mismatch")
            if not is_zero_vec(v):
                table[(i, j)] = v
        self._freeze(name=name, dim=dim, brackets=MappingProxyType(table))
        self._check_jacobi()

    def bracket_basis(self, i: int, j: int) -> Vec:
        if i == j:
            return zero_vec(self.dim)
        if i < j:
            return self.brackets.get((i, j), zero_vec(self.dim))
        return vec_scale(-1, self.brackets.get((j, i), zero_vec(self.dim)))

    def bracket(self, x: Sequence, y: Sequence) -> Vec:
        return self.as_algebra().multiply(x, y)

    def _check_jacobi(self):
        n = self.dim
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    ei, ej, ek = (basis_vec(n, t) for t in (i, j, k))
                    s = vec_add(
                        self.bracket(self.bracket(ei, ej), ek),
                        vec_add(
                            self.bracket(self.bracket(ej, ek), ei),
                            self.bracket(self.bracket(ek, ei), ej),
                        ),
                    )
                    if not is_zero_vec(s):
                        raise JacobiError((i, j, k))

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"

    @memoized
    def as_algebra(self) -> Algebra:
        """The bracket viewed as a bilinear product, built once; ``bracket``
        and the series below read from it."""
        table: dict = {}
        for (i, j), b in self.brackets.items():
            entry = {k + 1: c for k, c in enumerate(b) if c != 0}
            table[(i, j)] = entry
            table[(j, i)] = {k: -c for k, c in entry.items()}
        return Algebra(f"{self.name}#prod", self.dim, table)

    def lower_central_series(self) -> list[Subspace]:
        full = Subspace.full(self.dim)
        return self.as_algebra().power_series(full, left=full)

    def derived_series(self) -> list[Subspace]:
        return self.as_algebra().power_series(Subspace.full(self.dim))

    def center(self) -> Subspace:
        """The common kernel of the ad(e_j) = R(e_j) of the bracket product."""
        rows = [row for R in self.as_algebra().right_ops() for row in R.data]
        return Matrix(rows).kernel()

    @memoized
    def properties(self) -> LieProperties:
        lcs = self.lower_central_series()
        ds = self.derived_series()
        nilpotent = lcs[-1].dim == 0
        solvable = ds[-1].dim == 0
        return LieProperties(
            abelian=not self.brackets,
            nilpotent=nilpotent,
            solvable=solvable,
            nilpotency_class=len(lcs) - 1 if nilpotent else None,
            derived_length=len(ds) - 1 if solvable else None,
            center=self.center(),
        )


def lie_properties(g: LieAlgebra) -> LieProperties:
    return g.properties()
