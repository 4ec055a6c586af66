"""Independent oracles shared by the test modules."""

from fractions import Fraction
from functools import lru_cache

from lsakit.linalg import Matrix, Subspace


def fraction_free_rref(rows):
    """Gaussian elimination over Fraction without dividing pivot rows during
    the elimination, normalized to RREF at the end; returns (rows, pivots)."""
    m = [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for r, c in enumerate(pivots):
        m[r] = [a / m[r][c] for a in m[r]]
    return m, pivots


def closure(vectors, ops):
    """The smallest subspace containing ``vectors`` and invariant under the
    square matrices ``ops`` (lists of rows), over Fraction: the images of
    the current basis under every operator are added until the rank stops
    growing.  Returns the RREF basis rows."""
    basis, _ = fraction_free_rref(vectors) if vectors else ([], [])
    basis = [row for row in basis if any(row)]
    while True:
        images = [
            [sum(a * x for a, x in zip(op_row, v)) for op_row in op]
            for v in basis
            for op in ops
        ]
        if not basis + images:
            return []
        grown, pivots = fraction_free_rref(basis + images)
        if len(pivots) == len(basis):
            return basis
        basis = grown[: len(pivots)]


# -- real roots: Yun's square-free decomposition, then a Fraction Sturm chain
# per square-free factor (coefficient lists ascending by degree) -------------


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _divmod(a, b):
    a, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        f = a[k + len(b) - 1] / b[-1]
        q[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
    return _trim(q), _trim(a)


def _monic(p):
    return [c / p[-1] for c in p]


def _gcd(a, b):
    while b:
        a, b = b, _divmod(a, b)[1]
    return _monic(a)


def _derivative(p):
    return _trim([k * c for k, c in enumerate(p)][1:])


def _sub(a, b):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([x - y for x, y in zip(a, b)])


def _yun(p):
    """[(q_i, i)]: p = c * prod q_i^i, q_i square-free and coprime."""
    f = _monic(p)
    d = _derivative(f)
    a = _gcd(f, d)
    b, c = _divmod(f, a)[0], _divmod(d, a)[0]
    c = _sub(c, _derivative(b))
    out, i = [], 1
    while len(b) > 1:
        g = _gcd(b, c)
        if len(g) > 1:
            out.append((g, i))
        b, c = _divmod(b, g)[0], _divmod(c, g)[0]
        c = _sub(c, _derivative(b))
        i += 1
    return out


def _sturm_count(q):
    """Distinct real roots of a square-free q of degree >= 1."""
    chain = [q, _derivative(q)]
    while len(chain[-1]) > 1:
        r = _divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    at_plus = [p[-1] > 0 for p in chain]
    at_minus = [(p[-1] > 0) == (len(p) % 2 == 1) for p in chain]

    def changes(signs):
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return changes(at_minus) - changes(at_plus)


def real_root_counts(coeffs):
    """(distinct real roots, real roots with multiplicity) of the nonzero
    polynomial with ascending rational coefficients ``coeffs``."""
    p = _trim([Fraction(c) for c in coeffs])
    counts = [(_sturm_count(q), i) for q, i in _yun(p)] if len(p) > 1 else []
    return sum(n for n, _ in counts), sum(n * i for n, i in counts)


def partition_count_enumerated(j):
    """p(j) by exhaustive enumeration of partitions with parts <= m, small j."""

    @lru_cache(maxsize=None)
    def count(remaining, max_part):
        if remaining == 0:
            return 1
        if max_part == 0:
            return 0
        return sum(
            count(remaining - part, min(part, remaining - part))
            for part in range(min(max_part, remaining), 0, -1)
        )

    return count(j, j)


def multiplication_algebra(A):
    """Basis of the associative algebra generated by Id and all L(e_i),
    R(e_i) of the lsakit Algebra A, closed under products; dimension
    stabilizes the closure."""
    n = A.dim
    gens = [Matrix.identity(n), *A.side_ops("two_sided")]

    def flatten(M):
        return [x for row in M.data for x in row]

    basis = []
    span = Subspace.zero(n * n)
    queue = list(gens)
    while queue:
        M = queue.pop(0)
        if span.contains_vector(flatten(M)):
            continue
        span = span.sum(Subspace.from_vectors(n * n, [flatten(M)]))
        basis.append(M)
        for G in gens:
            queue.append(M * G)
            queue.append(G * M)
    return basis


# -- products on a structure-constant table {(i, j): {k: c}} (1-based, zero
# entries allowed), by dense Fraction loops over every index pair ------------


def multiply(table, n, x, y):
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            if x[i] and y[j]:
                for k, c in table.get((i + 1, j + 1), {}).items():
                    out[k - 1] += x[i] * y[j] * Fraction(c)
    return out


def _e(n, i):
    return [Fraction(int(t == i - 1)) for t in range(n)]


def associator(table, n, i, j, k):
    """(e_i e_j) e_k - e_i (e_j e_k)."""
    ei, ej, ek = _e(n, i), _e(n, j), _e(n, k)
    lhs = multiply(table, n, multiply(table, n, ei, ej), ek)
    rhs = multiply(table, n, ei, multiply(table, n, ej, ek))
    return [a - b for a, b in zip(lhs, rhs)]


def left_symmetry_witness(table, n):
    """The first (i < j, k) with (e_i, e_j, e_k) != (e_j, e_i, e_k), or None."""
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                if associator(table, n, i, j, k) != associator(table, n, j, i, k):
                    return (i, j, k)
    return None


def right_symmetry_witness(table, n):
    """The first (i, j < k) with (e_i, e_j, e_k) != (e_i, e_k, e_j), or None."""
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                if associator(table, n, i, j, k) != associator(table, n, i, k, j):
                    return (i, j, k)
    return None


def novikov_right_witness(table, n):
    """The first (i < j, k) with e_i (e_j e_k) != e_j (e_i e_k), or None."""
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                ei, ej, ek = _e(n, i), _e(n, j), _e(n, k)
                lhs = multiply(table, n, ei, multiply(table, n, ej, ek))
                rhs = multiply(table, n, ej, multiply(table, n, ei, ek))
                if lhs != rhs:
                    return (i, j, k)
    return None


def is_associative(table, n):
    return not any(
        any(associator(table, n, i, j, k))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for k in range(1, n + 1)
    )


def jacobi_witness(table, n):
    """The first i < j < k on which the commutator x.y - y.x fails the
    Jacobi identity, or None."""

    def br(x, y):
        return [a - b for a, b in zip(multiply(table, n, x, y), multiply(table, n, y, x))]

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                ei, ej, ek = _e(n, i), _e(n, j), _e(n, k)
                terms = (br(br(ei, ej), ek), br(br(ej, ek), ei), br(br(ek, ei), ej))
                if any(sum(t) for t in zip(*terms)):
                    return (i, j, k)
    return None


def span(rows):
    """The nonzero RREF rows of the span of ``rows``."""
    if not rows:
        return []
    m, pivots = fraction_free_rref(rows)
    return m[: len(pivots)]


def product_span(table, n, U, V):
    """RREF basis of span{u . v : u in U, v in V} for lists of rows U, V."""
    return span([multiply(table, n, u, v) for u in U for v in V])


def power_series(table, n, I, left=None):
    """I, I^2, ... as RREF bases, with the stopping rule of
    ``Algebra.power_series``."""
    series = [span(I)]
    for _ in range(n + 1):
        current = series[-1]
        if not current:
            break
        nxt = product_span(table, n, current if left is None else span(left), current)
        if nxt == current:
            break
        series.append(nxt)
    return series


def change_of_basis(table, n, P):
    """The table in the basis f_a = sum_i P[i][a] e_i, for an invertible
    square P: f_a f_b expanded in e, then solved for f-coordinates."""
    inv, pivots = fraction_free_rref(
        [list(row) + _e(n, r + 1) for r, row in enumerate(P)]
    )
    assert pivots == list(range(n)), "P is singular"
    P_inv = [row[n:] for row in inv]
    cols = [[Fraction(P[i][a]) for i in range(n)] for a in range(n)]
    out = {}
    for a in range(n):
        for b in range(n):
            w = multiply(table, n, cols[a], cols[b])
            coords = [sum(r * x for r, x in zip(row, w)) for row in P_inv]
            entry = {k + 1: c for k, c in enumerate(coords) if c}
            if entry:
                out[(a + 1, b + 1)] = entry
    return out
