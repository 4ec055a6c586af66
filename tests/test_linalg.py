import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lsakit import linalg
from lsakit.linalg import Matrix, Subspace, subspace_ops, solve
from lsakit.polys import Poly
from lsakit.scalars import QQ
from oracles import closure, fraction_free_rref


def _rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def test_rref_identity():
    m = Matrix.identity(3)
    reduced, pivots, rank = m.rref()
    assert reduced == m
    assert rank == 3
    assert pivots == (0, 1, 2)


def test_rref_proportional_rows():
    m = Matrix([[1, 2], [2, 4]])
    reduced, _, rank = m.rref()
    assert rank == 1
    assert reduced == Matrix([[1, 2], [0, 0]])


def test_rref_against_fraction_free_oracle():
    rng = random.Random(20260808)
    for _ in range(25):
        m = _rand_matrix(rng, 5, 7)
        reduced, pivots, rank = m.rref()
        oracle, oracle_pivots = fraction_free_rref(m.data)
        assert list(pivots) == oracle_pivots
        assert rank == len(oracle_pivots)
        for row, orow in zip(reduced.data, oracle):
            assert [Fraction(int(x.numerator), int(x.denominator)) for x in row] == orow


_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))


@st.composite
def rational_matrices(draw, max_rows=7, max_cols=7, square=False):
    """Rational matrices, tall, wide or square, with zero rows, repeated rows
    and rational combinations of rows mixed in."""
    cols = draw(st.integers(1, max_cols))
    rows = cols if square else draw(st.integers(1, max_rows))
    row = st.lists(_rationals, min_size=cols, max_size=cols)
    m = draw(st.lists(row, min_size=rows, max_size=rows))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "combine"]))
        if kind == "zero":
            new = [Fraction(0)] * cols
        elif kind == "repeat":
            new = list(draw(st.sampled_from(m)))
        else:
            r1, r2 = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            a, b = draw(_rationals), draw(_rationals)
            new = [a * x + b * y for x, y in zip(r1, r2)]
        if square:
            m[draw(st.integers(0, rows - 1))] = new
        else:
            m.insert(draw(st.integers(0, len(m))), new)
    return m


@given(rational_matrices())
@settings(max_examples=200, deadline=None)
def test_rref_of_rational_matrices_against_oracle(rows):
    reduced, pivots, rank = Matrix(rows).rref()
    oracle, oracle_pivots = fraction_free_rref(rows)
    assert list(pivots) == oracle_pivots
    assert rank == len(oracle_pivots)
    assert [list(row) for row in reduced.data] == oracle


def test_rref_fixed_point():
    rng = random.Random(7)
    for _ in range(10):
        m = _rand_matrix(rng, 4, 6)
        reduced = m.rref()[0]
        assert reduced.rref()[0] == reduced


def test_kernel_zero_map():
    assert Matrix.zeros(2, 2).kernel() == Subspace.full(2)


def test_kernel_identity():
    assert Matrix.identity(3).kernel() == Subspace.zero(3)


def test_kernel_single_relation():
    ker = Matrix([[1, 1]]).kernel()
    assert ker.dim == 1
    assert ker.basis == Matrix([[1, -1]])


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=5, max_size=5), min_size=2, max_size=6
    )
)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows):
    m = Matrix(rows)
    assert m.rank() + m.kernel().dim == m.cols


def test_subspace_ops_trivial():
    a = Subspace.from_vectors(2, [[1, 0]])
    b = Subspace.from_vectors(2, [[0, 1]])
    ops = subspace_ops(a, b)
    assert ops["sum"] == Subspace.full(2)
    assert ops["intersection"] == Subspace.zero(2)
    assert not ops["containment"]


def test_subspace_ops_idempotent():
    a = Subspace.from_vectors(3, [[1, 2, 0], [0, 0, 1]])
    ops = subspace_ops(a, a)
    assert ops["sum"] == a
    assert ops["intersection"] == a
    assert ops["containment"]


def test_subspace_dimension_formula():
    rng = random.Random(99)
    for _ in range(20):
        a = Subspace.from_vectors(
            5, [[rng.randint(-2, 2) for _ in range(5)] for _ in range(rng.randint(0, 4))]
        )
        b = Subspace.from_vectors(
            5, [[rng.randint(-2, 2) for _ in range(5)] for _ in range(rng.randint(0, 4))]
        )
        assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


def test_subspace_ambient_mismatch():
    with pytest.raises(ValueError):
        Subspace.full(2).sum(Subspace.full(3))


def test_char_poly_diag():
    p = Matrix([[2, 0], [0, 0]]).char_poly()
    assert p.coeffs == (QQ(0), QQ(-2), QQ(1))  # t^2 - 2t


def test_char_poly_nilpotent_jordan():
    m = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert m.char_poly().coeffs == (QQ(0), QQ(0), QQ(0), QQ(1))  # t^3


def _cofactor_det(mat):
    """Oracle: determinant by expansion along the first row (Fraction polys
    represented as coefficient lists)."""

    def poly_mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def poly_add(a, b):
        n = max(len(a), len(b))
        a = a + [Fraction(0)] * (n - len(a))
        b = b + [Fraction(0)] * (n - len(b))
        return [x + y for x, y in zip(a, b)]

    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = [Fraction(0)]
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = poly_mul(rows[0][j], det(minor))
            if j % 2:
                term = [-c for c in term]
            total = poly_add(total, term)
        return total

    return det(mat)


def test_char_poly_against_cofactor_oracle():
    rng = random.Random(4242)
    for _ in range(8):
        m = _rand_matrix(rng, 4, 4)
        # t*I - m as a matrix of Fraction coefficient lists
        sym = [
            [
                [Fraction(-int(m.data[i][j].numerator)), Fraction(1)]
                if i == j
                else [Fraction(-int(m.data[i][j].numerator))]
                for j in range(4)
            ]
            for i in range(4)
        ]
        oracle = _cofactor_det(sym)
        got = m.char_poly().coeffs
        padded = list(got) + [QQ(0)] * (len(oracle) - len(got))
        assert [Fraction(int(c.numerator), int(c.denominator)) for c in padded] == oracle


def test_cayley_hamilton():
    rng = random.Random(5)
    for n in (2, 3, 4, 5):
        m = _rand_matrix(rng, n, n, -2, 2)
        p = m.char_poly()
        acc = Matrix.zeros(n, n)
        power = Matrix.identity(n)
        for c in p.coeffs:
            if c:
                acc = acc + power.scale(c)
            power = power * m
        assert acc.is_zero()


def test_det_and_solve():
    m = Matrix([[2, 1], [1, 1]])
    assert m.det() == QQ(1)
    assert solve(m, (QQ(3), QQ(2))) == (QQ(1), QQ(1))
    assert solve(Matrix([[1, 0], [1, 0]]), (QQ(0), QQ(1))) is None


def test_det_singular():
    assert Matrix([[1, 2], [2, 4]]).det() == 0


@given(rational_matrices(max_cols=5, square=True))
@settings(max_examples=100, deadline=None)
def test_det_of_rational_matrices_against_cofactor_oracle(rows):
    constant_polys = [[[x] for x in row] for row in rows]
    assert Matrix(rows).det() == _cofactor_det(constant_polys)[0]


@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=3),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_reduce_is_the_canonical_coset_representative(rows, v, coeffs):
    S = Subspace.from_vectors(4, rows)
    r = S.reduce(v)
    assert all(r[p] == 0 for p in S.pivots)
    assert S.contains_vector([a - b for a, b in zip(v, r)])
    assert S.contains_vector(v) == (not any(r))
    shifted = list(v)
    for c, row in zip(coeffs, S.basis.data):
        shifted = [a + c * b for a, b in zip(shifted, row)]
    assert S.reduce(shifted) == r


def test_spin_under_a_shift():
    # N e_j = e_{j-1}: the invariant subspaces are the flags span{e_1..e_k}
    N = Matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    e3 = Subspace.from_vectors(4, [[0, 0, 1, 0]])
    flag3 = Subspace.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert e3.spin([N]) == flag3
    assert e3.spin([]) == e3
    assert Subspace.zero(4).spin([N]) == Subspace.zero(4)
    assert flag3.is_invariant([N]) and not e3.is_invariant([N])
    assert e3.spin([N, N.transpose()]) == Subspace.full(4)


def _fractions(rows):
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in rows]


def _char_poly_oracle(rows):
    """det(t*I - m) by cofactor expansion, as Fraction coefficients."""
    n = len(rows)
    sym = [
        [[-x, Fraction(1)] if i == j else [-x] for j, x in enumerate(row)]
        for i, row in enumerate(_fractions(rows))
    ]
    coeffs = _cofactor_det(sym)
    return coeffs + [Fraction(0)] * (n + 1 - len(coeffs))


@st.composite
def hessenberg_cases(draw, max_n=6):
    """Square rational matrices with zeros put on the subdiagonal and in
    whole columns, so the Hessenberg reduction must swap rows to pivot."""
    rows = [list(r) for r in draw(rational_matrices(max_cols=max_n, square=True))]
    n = len(rows)
    for i in draw(st.lists(st.integers(1, max_n), max_size=n)):
        if i < n:
            rows[i][i - 1] = Fraction(0)
    for j in draw(st.lists(st.integers(0, max_n - 1), max_size=2)):
        if j < n:
            for row in rows:
                row[j] = Fraction(0)
    return rows


@given(hessenberg_cases())
@settings(max_examples=150, deadline=None)
def test_char_poly_of_rational_matrices_against_cofactor_oracle(rows):
    got = Matrix(rows).char_poly().coeffs
    assert [Fraction(int(c.numerator), int(c.denominator)) for c in got] == _char_poly_oracle(rows)


def test_char_poly_swaps_rows_to_find_a_subdiagonal_pivot():
    # column 0 is zero below row 1 until row 3: the reduction must swap
    rows = [[1, 2, 0, 1], [0, 1, 3, 0], [0, 0, 2, 1], [5, 1, 0, 4]]
    assert list(Matrix(rows).char_poly().coeffs) == _char_poly_oracle(rows)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_cayley_hamilton_on_sparse_rational_matrices(n):
    rng = random.Random(n)
    m = Matrix(
        [
            [QQ(rng.choice([0, 0, 0, 1, -2, 3]), rng.choice([1, 2, 3])) for _ in range(n)]
            for _ in range(n)
        ]
    )
    acc = Matrix.zeros(n, n)
    power = Matrix.identity(n)
    for c in m.char_poly().coeffs:
        acc = acc + power.scale(c)
        power = power * m
    assert acc.is_zero()


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def conjugated_nilpotents(draw, max_n=7):
    """(P N P^-1, N) for a strictly upper-triangular rational N and P a
    product of elementary matrices, whose inverse is the reversed product
    of the inverse elementary matrices."""
    n = draw(st.integers(1, max_n))
    nil = [[draw(_rationals) if j > i else Fraction(0) for j in range(n)] for i in range(n)]
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            continue
        c = draw(_rationals)
        # P <- P (I + c E_ij),  P^-1 <- (I - c E_ij) P^-1
        for row in p:
            row[j] += c * row[i]
        p_inv[i] = [a - c * b for a, b in zip(p_inv[i], p_inv[j])]
    return _matmul(_matmul(p, nil), p_inv), nil


@given(conjugated_nilpotents())
@settings(max_examples=100, deadline=None)
def test_conjugates_of_strictly_upper_triangular_matrices_are_nilpotent(case):
    conj, _ = case
    assert Matrix(conj).is_nilpotent()


@given(conjugated_nilpotents(), _rationals.filter(bool))
@settings(max_examples=100, deadline=None)
def test_nilpotent_plus_a_nonzero_scalar_is_not_nilpotent(case, lam):
    conj, nil = case
    for m in (conj, nil):
        shifted = [[x + lam if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]
        assert not Matrix(shifted).is_nilpotent()


@given(rational_matrices(max_cols=6, square=True))
@settings(max_examples=150, deadline=None)
def test_is_nilpotent_agrees_with_the_characteristic_polynomial(rows):
    m = Matrix(rows)
    assert m.is_nilpotent() == (m.char_poly() == Poly.x_power(m.rows))


def test_is_nilpotent_small_cases():
    assert Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]).is_nilpotent()
    assert Matrix.zeros(3, 3).is_nilpotent()
    assert not Matrix.identity(2).is_nilpotent()
    # idempotent: the image chain stops shrinking at rank 1
    assert not Matrix([[1, 0], [0, 0]]).is_nilpotent()
    # the denominators are cleared: (1/2)(e_1 e_2^T) is nilpotent
    assert Matrix([[0, QQ(1, 2)], [0, 0]]).is_nilpotent()


@st.composite
def spin_cases(draw, max_n=5):
    """(ambient dim, start vectors, operators): operators with denominators,
    zero operators and operators that fix the start."""
    n = draw(st.integers(1, max_n))
    entry = st.one_of(st.just(Fraction(0)), _rationals)
    vector = st.lists(entry, min_size=n, max_size=n)
    start = draw(st.lists(vector, max_size=3))
    ops = []
    for kind in draw(st.lists(st.sampled_from(["random", "zero", "scalar"]), max_size=3)):
        if kind == "random":
            ops.append(draw(st.lists(vector, min_size=n, max_size=n)))
        elif kind == "zero":
            ops.append([[Fraction(0)] * n for _ in range(n)])
        else:
            c = draw(_rationals)
            ops.append([[c if i == j else Fraction(0) for j in range(n)] for i in range(n)])
    return n, start, ops


@given(spin_cases())
@settings(max_examples=200, deadline=None)
def test_spin_against_fraction_closure_oracle(case):
    n, start, ops = case
    W = Subspace.from_vectors(n, start).spin([Matrix(op) for op in ops])
    assert _fractions(W.basis.data) == closure(start, ops)
    # W is invariant, so spinning it again returns it
    assert W.spin([Matrix(op) for op in ops]) == W


def test_spin_stops_once_the_span_is_the_whole_space(monkeypatch):
    e1 = Subspace.from_vectors(4, [[1, 0, 0, 0]])
    inserted = []
    insert = linalg._insert

    def counted(pivots, row):
        inserted.append(row)
        return insert(pivots, row)

    monkeypatch.setattr(linalg, "_insert", counted)
    # the cyclic shift e_j -> e_(j+1) reaches K^4 from e_1 in three images;
    # the image of e_4 is not formed
    cycle = Matrix([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert e1.spin([cycle]) == Subspace.full(4)
    assert inserted == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve(Matrix.identity(2), (1,)),
        lambda: solve(Matrix([[1, 0]]), (1, 2, 3)),
        lambda: Subspace.from_vectors(3, [(1, 0)]),
        lambda: Subspace.from_vectors(2, [(1, 0, 0)]),
        lambda: Subspace.from_vectors(3, [(1, 0, 0)]).spin([Matrix.identity(2)]),
        lambda: Subspace.zero(3).spin([Matrix([[1, 0, 0]])]),
        lambda: Matrix([[1, 2]]).is_nilpotent(),
        lambda: Matrix([[1, 2]]).char_poly(),
    ],
    ids=[
        "solve-short-rhs",
        "solve-long-rhs",
        "from-vectors-short",
        "from-vectors-long",
        "spin-small-operator",
        "spin-wide-operator",
        "is-nilpotent-non-square",
        "char-poly-non-square",
    ],
)
def test_dimension_mismatch_raises(call):
    with pytest.raises(ValueError):
        call()
