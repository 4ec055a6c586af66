"""Exact arithmetic the benchmark uses to check lsakit's answers.

Nothing here imports lsakit: witnesses, subspaces and changes of basis are
checked with plain ``fractions.Fraction`` code, so a defect in the library's
own elimination or multiplication cannot hide behind itself.  Tables use the
library's convention: ``{(i, j): {k: c}}`` means e_i . e_j += c e_k, 1-based.
"""

from __future__ import annotations

from fractions import Fraction


def parse_vector(strings) -> list[Fraction]:
    """A vector given as exact rational strings ("3", "-1/2")."""
    return [Fraction(s) for s in strings]


def table_from_entries(entries) -> dict:
    """Table from (i, j, k, c) rows, as in an algebra document."""
    table: dict = {}
    for i, j, k, c in entries:
        row = table.setdefault((i, j), {})
        row[k] = row.get(k, Fraction(0)) + Fraction(c)
    return table


def multiply(table: dict, n: int, x, y) -> list[Fraction]:
    out = [Fraction(0)] * n
    for (i, j), row in table.items():
        f = x[i - 1] * y[j - 1]
        if f:
            for k, c in row.items():
                out[k - 1] += f * c
    return out


def rref(vectors, n: int) -> list[list[Fraction]]:
    """Reduced row-echelon basis of the span of ``vectors`` in Q^n."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    for v in rows:
        for b, p in zip(basis, pivots):
            if v[p]:
                f = v[p]
                v = [a - f * c for a, c in zip(v, b)]
        lead = next((j for j in range(n) if v[j]), None)
        if lead is None:
            continue
        inv = 1 / v[lead]
        v = [a * inv for a in v]
        for t, b in enumerate(basis):
            if b[lead]:
                f = b[lead]
                basis[t] = [a - f * c for a, c in zip(b, v)]
        basis.append(v)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=pivots.__getitem__)
    return [basis[t] for t in order]


def in_span(basis: list[list[Fraction]], v) -> bool:
    """Membership of v in the span of an RREF basis."""
    w = [Fraction(x) for x in v]
    for b in basis:
        p = next(j for j, x in enumerate(b) if x)
        if w[p]:
            f = w[p]
            w = [a - f * c for a, c in zip(w, b)]
    return not any(w)


def contains(big: list[list[Fraction]], small: list[list[Fraction]]) -> bool:
    return all(in_span(big, v) for v in small)


def same_span(a: list[list[Fraction]], b: list[list[Fraction]]) -> bool:
    return len(a) == len(b) and contains(a, b)


def is_two_sided_ideal(table: dict, n: int, vectors) -> bool:
    """A proper nonzero subspace closed under e_i . v and v . e_i."""
    basis = rref(vectors, n)
    if not 0 < len(basis) < n:
        return False
    for i in range(n):
        e = [Fraction(int(t == i)) for t in range(n)]
        for v in basis:
            if not in_span(basis, multiply(table, n, e, v)):
                return False
            if not in_span(basis, multiply(table, n, v, e)):
                return False
    return True


def det(m) -> Fraction:
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        r = next((i for i in range(c, n) if a[i][c]), None)
        if r is None:
            return Fraction(0)
        if r != c:
            a[c], a[r] = a[r], a[c]
            d = -d
        d *= a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def inverse(m) -> list[list[Fraction]]:
    n = len(m)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for c in range(n):
        r = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[r] = aug[r], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def change_of_basis(table: dict, n: int, P) -> dict:
    """Structure constants in the basis f_j = P e_j (the columns of P):
    f_i . f_j = P^{-1} (P e_i . P e_j).  The result is isomorphic to the
    input, so every isomorphism invariant is unchanged."""
    pinv = inverse(P)
    cols = [[Fraction(P[r][c]) for r in range(n)] for c in range(n)]
    out: dict = {}
    for i in range(n):
        for j in range(n):
            w = multiply(table, n, cols[i], cols[j])
            coords = [sum(pinv[r][k] * w[k] for k in range(n)) for r in range(n)]
            row = {k + 1: c for k, c in enumerate(coords) if c}
            if row:
                out[(i + 1, j + 1)] = row
    return out

