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
