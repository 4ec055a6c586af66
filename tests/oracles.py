"""Independent oracles shared by the test modules."""

from fractions import Fraction


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
