"""The product layer of ``Algebra`` -- multiply, product spans, power series,
the identity witnesses and the Jacobi check -- against dense Fraction loops
over every index pair (``oracles``), on random sparse tables and on
basis-changed catalog LSAs, whose tables have denominators."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from lsakit.algebra import Algebra, JacobiError, LieAlgebra
from lsakit.linalg import Subspace
from lsakit.simplicity import catalog_lsas

CATALOG_LSAS = sorted(catalog_lsas().items())

_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 12))


@st.composite
def sparse_tables(draw):
    """(n, table) with n in 1..6, a few nonzero products and some rows that
    are empty or hold only zeros."""
    n = draw(st.integers(1, 6))
    index = st.integers(1, n)
    table = draw(
        st.dictionaries(
            st.tuples(index, index),
            st.dictionaries(index, _rationals, max_size=3),
            max_size=2 * n,
        )
    )
    return n, table


@st.composite
def basis_changed_lsas(draw):
    """(n, table) of a catalog LSA in a random basis f_a = sum_i P_ia e_i."""
    _, A = draw(st.sampled_from(CATALOG_LSAS))
    n = A.dim
    P = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    assume(len(oracles.span(P)) == n)
    return n, oracles.change_of_basis({ij: dict(e) for ij, e in A.table.items()}, n, P)


def _vectors(n, count):
    return st.lists(st.lists(_rationals | st.just(Fraction(0)), min_size=n, max_size=n),
                    min_size=count, max_size=count)


def _rows(S: Subspace):
    return [list(row) for row in S.basis.data]


def _check_against_oracle(n, table, data):
    A = Algebra("t", n, table)
    x, y = data.draw(_vectors(n, 2))
    assert list(A.multiply(x, y)) == oracles.multiply(table, n, x, y)

    U = Subspace.from_vectors(n, data.draw(_vectors(n, data.draw(st.integers(0, n)))))
    V = Subspace.from_vectors(n, data.draw(_vectors(n, data.draw(st.integers(0, n)))))
    for left, right in ((U, V), (V, U), (U, U)):
        assert _rows(A.product_span(left, right)) == oracles.product_span(
            table, n, _rows(left), _rows(right))
    assert [_rows(S) for S in A.power_series(U)] == oracles.power_series(table, n, _rows(U))
    assert [_rows(S) for S in A.power_series(U, left=V)] == oracles.power_series(
        table, n, _rows(U), left=_rows(V))

    assert A.left_symmetry_witness() == oracles.left_symmetry_witness(table, n)
    assert A.right_symmetry_witness() == oracles.right_symmetry_witness(table, n)
    assert A.novikov_right_witness() == oracles.novikov_right_witness(table, n)
    assert A.is_associative() == oracles.is_associative(table, n)

    triple = oracles.jacobi_witness(table, n)
    if triple is None:
        A.commutator_lie()
    else:
        with pytest.raises(JacobiError) as err:
            A.commutator_lie()
        assert err.value.triple == triple


@given(sparse_tables(), st.data())
@settings(max_examples=150, deadline=None)
def test_products_match_dense_fraction_loops_on_sparse_tables(case, data):
    _check_against_oracle(*case, data)


@given(basis_changed_lsas(), st.data())
@settings(max_examples=40, deadline=None)
def test_products_match_dense_fraction_loops_on_basis_changed_lsas(case, data):
    _check_against_oracle(*case, data)


@given(sparse_tables())
@settings(max_examples=100, deadline=None)
def test_lie_algebra_reports_the_first_jacobi_failure(case):
    """A bracket table given directly, i < j only, with its first failing
    triple as in the dense oracle."""
    n, table = case
    brackets = {}
    for (i, j), entry in table.items():
        if i < j:
            v = [Fraction(0)] * n
            for k, c in entry.items():
                v[k - 1] += c
            brackets[(i, j)] = v
    product = {}
    for (i, j), v in brackets.items():
        product[(i, j)] = {k + 1: c for k, c in enumerate(v) if c}
        product[(j, i)] = {k + 1: -c for k, c in enumerate(v) if c}
    triple = oracles.jacobi_witness(product, n)
    if triple is None:
        LieAlgebra("g", n, brackets)
    else:
        with pytest.raises(JacobiError) as err:
            LieAlgebra("g", n, brackets)
        assert err.value.triple == triple


def test_basis_changed_catalog_tables_have_denominators():
    """The basis-changed family really exercises D > 1."""
    _, A = CATALOG_LSAS[0]
    n = A.dim
    P = [[1 if i <= j else 0 for j in range(n)] for i in range(n)]
    P[0][0] = 3
    table = oracles.change_of_basis({ij: dict(e) for ij, e in A.table.items()}, n, P)
    assert any(c.denominator > 1 for e in table.values() for c in e.values())
