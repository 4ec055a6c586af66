import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lsakit.linalg import Matrix, Subspace, subspace_ops, solve
from lsakit.scalars import QQ
from oracles import fraction_free_rref


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
