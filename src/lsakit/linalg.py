"""Exact linear algebra over the rationals.

Matrices are dense and immutable once built.  Every row reduction runs
through one fraction-free integer engine, :func:`echelon`; the RREF of a
matrix -- and hence the basis matrix of a :class:`Subspace` -- is a
canonical form, so two subspaces are equal iff their basis matrices are
identical.  The closure ``Subspace.spin`` and the nilpotency test
``Matrix.is_nilpotent`` work on each operator's sparse integer columns
(``Matrix._integer_columns``) and on that engine, without fractions; the
characteristic polynomial comes from a Hessenberg reduction.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .scalars import QQ, ZERO, ONE
from .polys import Poly


def echelon(rows: Iterable[dict]) -> dict[int, dict[int, int]]:
    """An echelon basis over Z of the span of sparse integer rows
    {column -> int}, as {pivot column -> primitive row}: the only row
    elimination in lsakit, one :func:`_insert` per row.  Zero entries are
    ignored; the input rows are not changed."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        _insert(pivots, row)
    return pivots


def _insert(pivots: dict, row: dict) -> dict | None:
    """Add one sparse integer row to the echelon ``pivots`` in place and
    return its new primitive pivot row, or None if the row lies in the span.
    Fraction-free (after Bareiss 1968, with gcd content removal in place of
    exact division): the row is reduced by the stored pivot rows, leading
    column first, until it is zero or leads in a new column."""
    r = {c: v for c, v in row.items() if v}
    while r:
        c = min(r)
        piv = pivots.get(c)
        if piv is None:
            pivots[c] = r = _primitive(r)
            return r
        r = _eliminate(r, piv, c)
    return None


def _eliminate(r: dict, piv: dict, c: int) -> dict:
    """(p_c/g) r - (r_c/g) piv for g = gcd(r_c, p_c), divided by its
    content: r with its column-c entry cleared.  r may be changed in place."""
    g = math.gcd(r[c], piv[c])
    s, t = piv[c] // g, r[c] // g
    if s != 1:
        r = {cc: s * v for cc, v in r.items()}
    for cc, v in piv.items():
        nv = r.get(cc, 0) - t * v
        if nv:
            r[cc] = nv
        else:
            del r[cc]
    return _primitive(r)


def _primitive(row: dict) -> dict:
    """row divided by the gcd of its entries (an empty row is returned as is)."""
    g = math.gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _integer_row(row: Sequence) -> dict[int, int]:
    """A rational row times the lcm of its denominators, as {column -> int}."""
    d = math.lcm(*(x.denominator for x in row))
    return {j: x.numerator * (d // x.denominator) for j, x in enumerate(row) if x}


def _image(columns: tuple, row: dict) -> dict[int, int]:
    """A sparse integer vector {index -> int} mapped by the integer matrix
    whose nonzero (row, entry) pairs per column are ``columns``."""
    out: dict[int, int] = {}
    for j, v in row.items():
        for i, a in columns[j]:
            out[i] = out.get(i, 0) + a * v
    return out


def _reduced_rows(rows: dict[int, dict[int, int]], cols: int) -> list[list]:
    """The RREF rows, in pivot order, of the span of an echelon
    {pivot column -> integer row}: each row is back-substituted with the
    elimination step of :func:`echelon` and divided by its pivot entry.
    The echelon's rows are changed."""
    pivots = sorted(rows)
    for k in reversed(range(len(pivots))):
        c = pivots[k]
        for above in pivots[:k]:
            if c in rows[above]:
                rows[above] = _eliminate(rows[above], rows[c], c)
    reduced = []
    for c in pivots:
        row, p = rows[c], rows[c][c]
        dense = [ZERO] * cols
        for j, v in row.items():
            dense[j] = QQ(v, p)
        reduced.append(dense)
    return reduced


class Matrix:
    __slots__ = ("rows", "cols", "data", "_columns")

    def __init__(self, entries: Iterable[Sequence], cols: int | None = None):
        data = tuple(tuple(x if type(x) is QQ else QQ(x) for x in row) for row in entries)
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else (cols or 0)
        self._columns = None
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[ZERO] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "Matrix":
        cols = [tuple(c) for c in columns]
        rows = len(cols[0]) if cols else 0
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(rows)])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = QQ(c)
        return Matrix([[c * x for x in row] for row in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        ot = other.data
        out = []
        for row in self.data:
            new = [ZERO] * other.cols
            for k, a in enumerate(row):
                if a:
                    ok = ot[k]
                    for j in range(other.cols):
                        if ok[j]:
                            new[j] += a * ok[j]
            out.append(new)
        return Matrix(out)

    def matvec(self, v: Sequence) -> tuple:
        if self.cols != len(v):
            raise ValueError("dimension mismatch in matvec")
        support = [(j, x) for j, x in enumerate(v) if x]
        out = []
        for row in self.data:
            s = ZERO
            for j, x in support:
                if row[j]:
                    s += row[j] * x
            out.append(s)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), ZERO)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.data)

    def row_list(self) -> list[list]:
        return [list(row) for row in self.data]

    def _integer_columns(self) -> tuple:
        """The nonzero (row, int) pairs of each column of D*self, where D is
        the lcm of the entries' denominators.  D*M has the invariant
        subspaces and the nilpotency of M.  Built once per matrix: matrices
        are immutable, and the L/R operators are applied many times."""
        if self._columns is None:
            d = math.lcm(*(x.denominator for row in self.data for x in row if x))
            self._columns = tuple(
                tuple(
                    (i, row[j].numerator * (d // row[j].denominator))
                    for i, row in enumerate(self.data)
                    if row[j]
                )
                for j in range(self.cols)
            )
        return self._columns

    def rref(self) -> tuple["Matrix", tuple[int, ...], int]:
        """Reduced row-echelon form; returns (reduced, pivot columns, rank).
        Each row is scaled by the lcm of its denominators, which keeps the
        span; the integer rows go through ``echelon``, are back-substituted
        with its elimination step and divided by their pivot entries."""
        rows = echelon(map(_integer_row, self.data))
        pivots = tuple(sorted(rows))
        reduced = _reduced_rows(rows, self.cols)
        reduced += [[ZERO] * self.cols for _ in range(self.rows - len(pivots))]
        return Matrix(reduced, cols=self.cols), pivots, len(pivots)

    def rank(self) -> int:
        return self.rref()[2]

    def kernel(self) -> "Subspace":
        """Right kernel {v : self @ v = 0} as a canonical subspace."""
        reduced, pivots, rank = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for f in free:
            v = [ZERO] * self.cols
            v[f] = ONE
            for r, p in enumerate(pivots):
                v[p] = -reduced.data[r][f]
            basis.append(v)
        return Subspace.from_vectors(self.cols, basis)

    def det(self):
        """(-1)^n times the constant term of the characteristic polynomial."""
        c0 = self.char_poly().coeffs[0]
        return -c0 if self.rows % 2 else c0

    def char_poly(self) -> Poly:
        """Monic characteristic polynomial det(t*I - self), in O(n^3): a
        similarity to upper Hessenberg form H, then the recurrence on the
        leading principal minors p_m = det(t*I - H_m) (H. Cohen, A Course in
        Computational Algebraic Number Theory, 1993, Alg. 2.2.9)."""
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        n = self.rows
        h = self.row_list()
        for m in range(1, n - 1):
            # clear column m-1 below the subdiagonal, pivoting on row m
            i = next((i for i in range(m, n) if h[i][m - 1]), None)
            if i is None:
                continue
            if i != m:
                h[i], h[m] = h[m], h[i]
                for row in h:
                    row[i], row[m] = row[m], row[i]
            pivot_row = h[m]
            for i in range(m + 1, n):
                u = h[i][m - 1] / pivot_row[m - 1]
                if not u:
                    continue
                # row_i -= u row_m, then column_m += u column_i
                row = h[i]
                for j in range(m - 1, n):
                    if pivot_row[j]:
                        row[j] -= u * pivot_row[j]
                for row in h:
                    if row[i]:
                        row[m] += u * row[i]
        # p_m = (t - h_mm) p_(m-1) - sum_(i<m) h_im (h_(m,m-1) ... h_(i+1,i)) p_(i-1)
        polys = [[ONE]]
        for m in range(n):
            p = [ZERO] + polys[m]
            for k, c in enumerate(polys[m]):
                p[k] -= h[m][m] * c
            t = ONE
            for i in range(m - 1, -1, -1):
                t *= h[i + 1][i]
                if not t:
                    break
                f = h[i][m] * t
                if f:
                    for k, c in enumerate(polys[i]):
                        p[k] -= f * c
            polys.append(p)
        return Poly(polys[n])

    def is_nilpotent(self) -> bool:
        """Whether some power of this square matrix is zero, by the image
        chain K^n >= M K^n >= M^2 K^n >= ... on the integer columns of D*M:
        nilpotent iff the chain reaches 0, and it stops at a nonzero term as
        soon as one step fails to shrink it, within n steps."""
        if self.rows != self.cols:
            raise ValueError("nilpotency of a non-square matrix")
        columns = self._integer_columns()
        images = [dict(c) for c in columns]
        dim = self.rows
        while True:
            pivots = echelon(images)
            if not pivots:
                return True
            if len(pivots) == dim:
                return False
            dim = len(pivots)
            images = [_image(columns, row) for row in pivots.values()]


class Subspace:
    """Subspace of K^n in canonical form: RREF basis with no zero rows.

    ``pivots`` holds the pivot column of each basis row, found once here;
    every reduction against the basis reads it, with the rows kept as their
    nonzero (column, entry) pairs."""

    __slots__ = ("ambient_dim", "basis", "pivots", "_support")

    def __init__(self, ambient_dim: int, basis: Matrix):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._support = tuple(
            tuple((j, x) for j, x in enumerate(row) if x) for row in basis.data
        )
        self.pivots = tuple(row[0][0] for row in self._support)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        m = Matrix(vectors)
        if m.rows and m.cols != ambient_dim:
            raise ValueError(f"vectors of length {m.cols} in K^{ambient_dim}")
        reduced, _, rank = m.rref()
        return cls(ambient_dim, Matrix(reduced.data[:rank], cols=ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.zeros(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient_dim})"

    def basis_vectors(self) -> list[tuple]:
        return [tuple(row) for row in self.basis.data]

    def reduce(self, v: Sequence) -> tuple:
        """The canonical representative of the coset v + self: v minus the
        combination of basis rows that clears every pivot coordinate.  It is
        zero exactly when v lies in self."""
        w = list(v)
        for p, row in zip(self.pivots, self._support):
            f = w[p]
            if f:
                for j, y in row:
                    w[j] -= f * y
        return tuple(w)

    def contains_vector(self, v: Sequence) -> bool:
        """Membership by reduction against the RREF basis."""
        return not any(self.reduce(v))

    def is_invariant(self, ops: Sequence[Matrix]) -> bool:
        """Whether every operator in ops maps self into itself."""
        for v in self.basis.data:
            for op in ops:
                w = op.matvec(v)
                if any(w) and not self.contains_vector(w):
                    return False
        return True

    def spin(self, ops: Sequence[Matrix]) -> "Subspace":
        """The smallest subspace that contains self and is invariant under
        every operator in ops, found fraction-free: every new primitive row
        of the integer echelon is mapped by each D*op (see
        ``Matrix._integer_columns``) and its image inserted.  It ends when no
        image is new, or as soon as the rows span the ambient space."""
        n = self.ambient_dim
        if any(op.rows != n or op.cols != n for op in ops):
            raise ValueError(f"spin needs {n}x{n} operators")
        if self.dim == n:
            return self
        columns = [op._integer_columns() for op in ops]
        pivots: dict[int, dict[int, int]] = {}
        frontier = [_insert(pivots, _integer_row(v)) for v in self.basis.data]
        while frontier:
            new = []
            for row in frontier:
                for cols in columns:
                    added = _insert(pivots, _image(cols, row))
                    if added is not None:
                        if len(pivots) == n:
                            return Subspace.full(n)
                        new.append(added)
            frontier = new
        if len(pivots) == self.dim:
            return self
        return Subspace(n, Matrix(_reduced_rows(pivots, n), cols=n))

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(v) for v in other.basis_vectors())

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(
            self.ambient_dim, list(self.basis.data) + list(other.basis.data)
        )

    def equations(self) -> Matrix:
        """A matrix E with self = {v : E @ v = 0} (rows span the annihilator)."""
        if self.dim == 0:
            return Matrix.identity(self.ambient_dim)
        return self.basis.kernel().basis

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        stacked = Matrix(
            list(self.equations().data) + list(other.equations().data),
            cols=self.ambient_dim,
        )
        return stacked.kernel()

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")


def subspace_ops(a: Subspace, b: Subspace) -> dict:
    """Sum, intersection and containment of two subspaces of the same ambient."""
    return {
        "sum": a.sum(b),
        "intersection": a.intersect(b),
        "containment": a.contains(b),
    }


def solve(a: Matrix, b: Sequence):
    """One solution x of a @ x = b, or None if inconsistent."""
    if len(b) != a.rows:
        raise ValueError(f"{len(b)} right-hand sides for {a.rows} equations")
    n = a.cols
    aug = Matrix([list(row) + [QQ(x)] for row, x in zip(a.data, b)])
    reduced, pivots, rank = aug.rref()
    if n in pivots:
        return None
    x = [ZERO] * n
    for r, p in enumerate(pivots):
        x[p] = reduced.data[r][n]
    return tuple(x)
