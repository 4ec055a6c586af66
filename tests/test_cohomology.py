import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lsakit.algebra import Algebra
from lsakit.cohomology import (
    Cochain,
    DegreeError,
    NotAssociativeError,
    ResourceBoundError,
    compose_unsigned,
    derivation_space,
    gerstenhaber_bracket,
    hochschild_compose_signed,
    hochschild_d,
    lsa_coboundary,
    lsa_cohomology,
    sparse_rank,
    _coboundary_rows,
)
from lsakit.linalg import Matrix, solve
from lsakit.scalars import QQ, ZERO
from lsakit.simplicity import a_one, catalog_lsas
from oracles import fraction_free_rref


def dense_coboundary(A, f):
    """Independent oracle for lsa_coboundary: the four sums of the
    cohomology module docstring, evaluated directly on the cochain tensor in
    Fraction arithmetic."""
    p = f.degree
    n = A.dim
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


def change_of_basis(A, P):
    """The isomorphic copy of A in the basis f_j = P e_j (the columns of P):
    f_i . f_j = P^-1 (P e_i . P e_j)."""
    n = A.dim
    M = Matrix(P)
    cols = [[QQ(P[r][c]) for r in range(n)] for c in range(n)]
    table = {}
    for i in range(n):
        for j in range(n):
            coords = solve(M, A.multiply(cols[i], cols[j]))
            table[(i + 1, j + 1)] = {k + 1: c for k, c in enumerate(coords) if c}
    return Algebra(f"{A.name}@P", n, table)


def mat2_units():
    def idx(p, q):
        return (p - 1) * 2 + q

    table = {}
    for p, q, r, s in itertools.product((1, 2), repeat=4):
        if q == r:
            table[(idx(p, q), idx(r, s))] = {idx(p, s): 1}
    return Algebra("mat2", 4, table)


def dual_numbers():
    # e1 = 1, e2 = eps with eps^2 = 0
    return Algebra(
        "dual", 2, {(1, 1): {1: 1}, (1, 2): {2: 1}, (2, 1): {2: 1}}
    )


def test_coboundary_of_identity_is_multiplication():
    A = a_one(QQ(1, 2))
    assert lsa_coboundary(A, Cochain.identity(3)) == Cochain.multiplication(A)


def test_coboundary_of_zero_is_zero():
    A = a_one(1)
    assert lsa_coboundary(A, Cochain.zero(3, 2)).is_zero()


def test_delta_squared_vanishes_low_degrees():
    rng = random.Random(0xC0FFEE)
    A = a_one(QQ(1, 2))
    for _ in range(5):
        f1 = Cochain.random(3, 1, rng)
        assert lsa_coboundary(A, lsa_coboundary(A, f1)).is_zero()
        f2 = Cochain.random(3, 2, rng)
        assert lsa_coboundary(A, lsa_coboundary(A, f2)).is_zero()


def test_degree_cap():
    A = a_one(1)
    with pytest.raises(DegreeError):
        lsa_coboundary(A, Cochain.zero(3, 4))


def test_matrix_path_agrees_with_dense_path(dim2_simple, rad_not_right_ideal):
    # The rank of the integer coboundary matrix must equal the rank of the
    # dense oracle applied to every basis cochain.
    for A in (dim2_simple, rad_not_right_ideal):
        n = A.dim
        for p in (1, 2):
            rows, _ = _coboundary_rows(A, p)
            rank_sparse = sparse_rank(list(rows.values()))
            cols = []
            for idx in range(n**p * n):
                t = [QQ(0)] * (n**p * n)
                t[idx] = QQ(1)
                cols.append(list(dense_coboundary(A, Cochain(n, p, tuple(t))).tensor))
            rank_dense = Matrix.from_columns(cols).rank()
            assert rank_sparse == rank_dense


def test_coboundary_matches_dense_oracle_on_catalog():
    rng = random.Random(0xD1FF)
    for name, A in catalog_lsas().items():
        for p in (1, 2):
            for _ in range(2):
                f = Cochain.random(A.dim, p, rng).scale(QQ(1, rng.randint(1, 5)))
                assert lsa_coboundary(A, f) == dense_coboundary(A, f), (name, p)


# Dense basis changes whose copies have denominators: |det P| = 3 and 4.
# (Every +-1 change of dim2-simple has an integer table.)
BASIS_CHANGES = {
    2: [[2, 1], [1, -1]],
    3: [[1, 1, 1], [1, -1, 1], [1, 1, -1]],
}


@pytest.mark.parametrize("source", ["A_2", "dim2-simple"])
def test_dense_rational_basis_change_keeps_cohomology(source):
    A = catalog_lsas()[source]
    B = change_of_basis(A, BASIS_CHANGES[A.dim])
    assert B.is_left_symmetric()
    assert len(B.table) == A.dim**2  # every product is nonzero
    assert _coboundary_rows(B, 1)[1] > 1  # the rows were scaled
    for p in (1, 2):
        assert lsa_cohomology(B, p) == lsa_cohomology(A, p), p
    rng = random.Random(7)
    f = Cochain.random(B.dim, 1, rng)
    assert lsa_coboundary(B, f) == dense_coboundary(B, f)


_entries = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80)).filter(bool)
_sparse_rows = st.lists(st.dictionaries(st.integers(0, 6), _entries, max_size=7), max_size=7)


@st.composite
def sparse_integer_rows(draw):
    """Sparse integer rows with repeated, dependent and empty rows mixed in."""
    rows = draw(_sparse_rows)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["repeat", "combine", "empty"]))
        if kind == "empty" or not rows:
            new = {}
        elif kind == "repeat":
            new = dict(draw(st.sampled_from(rows)))
        else:
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(_entries), draw(_entries)
            new = {c: a * r1.get(c, 0) + b * r2.get(c, 0) for c in set(r1) | set(r2)}
            new = {c: v for c, v in new.items() if v}
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


@given(sparse_integer_rows())
@settings(max_examples=200, deadline=None)
def test_sparse_rank_matches_dense_rref(rows):
    before = [dict(r) for r in rows]
    dense = [[r.get(c, 0) for c in range(7)] for r in rows]
    assert sparse_rank(rows) == len(fraction_free_rref(dense)[1])
    assert rows == before


def test_dim_z1_equals_derivations_everywhere():
    for name, A in catalog_lsas().items():
        dims = lsa_cohomology(A, 1)
        assert dims.dim_cocycles == derivation_space(A).dim, name


def test_cohomology_regression_dim2_simple(dim2_simple):
    # frozen from an independent Fraction/naive-elimination oracle
    expected = {1: (0, 0, 0), 2: (4, 4, 0), 3: (4, 4, 0)}
    for p, (z, b, h) in expected.items():
        dims = lsa_cohomology(dim2_simple, p)
        assert (dims.dim_cocycles, dims.dim_coboundaries, dims.dim_cohomology) == (
            z,
            b,
            h,
        )


def test_zero_product_dim1_all_cochains_are_cocycles():
    Z = Algebra("zero1", 1, {})
    for p in (1, 2, 3):
        dims = lsa_cohomology(Z, p)
        assert dims.dim_cocycles == 1
        assert dims.dim_coboundaries == 0
        assert dims.dim_cohomology == 1


def test_compose_degree_one_is_map_composition():
    rng = random.Random(23)
    f = Cochain.random(2, 1, rng)
    g = Cochain.random(2, 1, rng)
    fg = hochschild_compose_signed(f, g)
    for a in range(2):
        gv = g.value((a,))
        expected = [
            sum((gv[m] * f.value((m,))[t] for m in range(2)), QQ(0)) for t in range(2)
        ]
        assert list(fg.value((a,))) == expected
    assert compose_unsigned(f, g) == fg  # single slot, no sign


def test_mu_compose_mu_is_associator():
    A = a_one(QQ(1, 2))
    mu = Cochain.multiplication(A)
    mm = hochschild_compose_signed(mu, mu)
    for args in itertools.product(range(3), repeat=3):
        x, y, z = (tuple(QQ(1) if t == a else QQ(0) for t in range(3)) for a in args)
        assert tuple(mm.value(args)) == A.associator(x, y, z)


def test_associative_mu_squares_to_zero():
    for A in (mat2_units(), dual_numbers()):
        mu = Cochain.multiplication(A)
        assert hochschild_compose_signed(mu, mu).is_zero()


def test_graded_right_symmetry_random():
    rng = random.Random(31)
    for (p, q, r) in [(2, 2, 1), (2, 1, 2), (1, 2, 2), (2, 2, 2)]:
        x = Cochain.random(2, p, rng)
        y = Cochain.random(2, q, rng)
        z = Cochain.random(2, r, rng)
        a1 = hochschild_compose_signed(
            hochschild_compose_signed(x, y), z
        ) - hochschild_compose_signed(x, hochschild_compose_signed(y, z))
        a2 = hochschild_compose_signed(
            hochschild_compose_signed(x, z), y
        ) - hochschild_compose_signed(x, hochschild_compose_signed(z, y))
        if (y.grading * z.grading) % 2:
            a2 = -a2
        assert a1 == a2


def test_bracket_self_odd_grading():
    rng = random.Random(37)
    f = Cochain.random(2, 2, rng)  # grading 1, odd
    assert gerstenhaber_bracket(f, f) == hochschild_compose_signed(f, f).scale(2)


def test_bracket_degree_one_pair_is_commutator():
    rng = random.Random(41)
    f = Cochain.random(2, 1, rng)
    g = Cochain.random(2, 1, rng)
    br = gerstenhaber_bracket(f, g)
    fg = hochschild_compose_signed(f, g)
    gf = hochschild_compose_signed(g, f)
    assert br == fg - gf


def test_graded_jacobi_random():
    rng = random.Random(43)
    for (p, q, r) in [(2, 2, 1), (2, 1, 2), (1, 1, 1), (2, 2, 2)]:
        x = Cochain.random(2, p, rng, -2, 2)
        y = Cochain.random(2, q, rng, -2, 2)
        z = Cochain.random(2, r, rng, -2, 2)
        dx, dy, dz = x.grading, y.grading, z.grading
        t1 = gerstenhaber_bracket(gerstenhaber_bracket(x, y), z).scale(
            (-1) ** (dx * dz)
        )
        t2 = gerstenhaber_bracket(gerstenhaber_bracket(y, z), x).scale(
            (-1) ** (dy * dx)
        )
        t3 = gerstenhaber_bracket(gerstenhaber_bracket(z, x), y).scale(
            (-1) ** (dz * dy)
        )
        assert (t1 + t2 + t3).is_zero()


def test_hochschild_d_squares_to_zero():
    rng = random.Random(47)
    A = dual_numbers()
    mu = Cochain.multiplication(A)
    for p in (1, 2):
        for _ in range(10):
            f = Cochain.random(2, p, rng)
            assert hochschild_d(mu, hochschild_d(mu, f)).is_zero()


def test_hochschild_d_of_identity_is_minus_mu():
    # Direct expansion gives d(1) = -mu (the identity map is not a cocycle).
    A = mat2_units()
    mu = Cochain.multiplication(A)
    d_id = hochschild_d(mu, Cochain.identity(4))
    assert d_id == -mu


def test_hochschild_d_degree_zero_convention():
    A = dual_numbers()
    mu = Cochain.multiplication(A)
    v = (QQ(3), QQ(-2))
    dv = hochschild_d(mu, Cochain.constant(v))
    for a in range(2):
        x = tuple(QQ(1) if t == a else QQ(0) for t in range(2))
        expected = tuple(
            p - q for p, q in zip(A.multiply(x, v), A.multiply(v, x))
        )
        assert tuple(dv.value((a,))) == expected


def test_hochschild_d_rejects_non_associative():
    A = a_one(QQ(1, 2))  # left-symmetric but not associative
    mu = Cochain.multiplication(A)
    with pytest.raises(NotAssociativeError):
        hochschild_d(mu, Cochain.identity(3))


def test_unsigned_associator_right_symmetric():
    rng = random.Random(53)
    for _ in range(6):
        f = Cochain.random(2, 2, rng)
        g = Cochain.random(2, 1, rng)
        h = Cochain.random(2, 1, rng)
        a1 = compose_unsigned(compose_unsigned(f, g), h) - compose_unsigned(
            f, compose_unsigned(g, h)
        )
        a2 = compose_unsigned(compose_unsigned(f, h), g) - compose_unsigned(
            f, compose_unsigned(h, g)
        )
        assert a1 == a2


def test_compose_degree_arithmetic():
    rng = random.Random(59)
    f = Cochain.random(2, 2, rng)
    g = Cochain.random(2, 2, rng)
    assert compose_unsigned(f, g).degree == 3


def test_resource_bound():
    rng = random.Random(61)
    f = Cochain.random(4, 3, rng)
    g = Cochain.random(4, 3, rng)
    with pytest.raises(ResourceBoundError):
        hochschild_compose_signed(f, g)
