import itertools

import pytest

from lsakit.witt import (
    NovikovReport,
    TruncationError,
    TruncPoly,
    VecField,
    check_novikov_truncated,
    generator_count,
    monomial_generators,
    vec_associator,
    vec_product,
    witt_associator,
)


def term(nvars, cap, mono, direction, c=1):
    return VecField.term(nvars, cap, mono, direction, c)


def test_product_single_variable():
    # (x^2 d) o (x d) = x * 2x d = 2 x^2 d
    f = term(1, 6, (2,), 0)
    g = term(1, 6, (1,), 0)
    prod = vec_product(f, g)
    assert prod == term(1, 6, (2,), 0, 2)


def test_product_constant_coefficient():
    # (u d_i) o (c d_j) = c d_j(u) d_i ; constant u gives zero
    u = term(2, 4, (1, 1), 0)
    c = term(2, 4, (0, 0), 1)
    prod = vec_product(u, c)
    assert prod == term(2, 4, (1, 0), 0)
    const = term(2, 4, (0, 0), 0)
    assert vec_product(const, c).is_zero()


def test_product_cross_variable_vanishes():
    # (x1 d1) o (x2 d2) = x2 d2(x1) d1 = 0
    f = term(2, 4, (1, 0), 0)
    g = term(2, 4, (0, 1), 1)
    assert vec_product(f, g).is_zero()


def test_witt_associator_closed_form_match():
    # u = x^2, v = w = x: closed form x*x*2 d = 2x^2 d
    f = term(1, 6, (2,), 0)
    g = term(1, 6, (1,), 0)
    h = term(1, 6, (1,), 0)
    assoc = witt_associator(f, g, h)
    assert assoc == term(1, 6, (2,), 0, 2)


def test_witt_associator_constant_u_vanishes():
    f = term(1, 6, (0,), 0)
    g = term(1, 6, (2,), 0)
    h = term(1, 6, (1,), 0)
    assert witt_associator(f, g, h).is_zero()


def test_witt_associator_right_symmetric_swap():
    f = term(1, 6, (3,), 0)
    g = term(1, 6, (1,), 0)
    h = term(1, 6, (2,), 0)
    assert witt_associator(f, g, h) == witt_associator(f, h, g)


def test_truncation_flag_and_error():
    f = term(1, 3, (3,), 0)
    g = term(1, 3, (2,), 0)
    prod = vec_product(f, g)  # degree 3+2-1 = 4 > cap
    assert prod.truncated
    with pytest.raises(TruncationError):
        prod.require_exact()


def untruncated_monomial_triples(nvars, cap):
    """Monomial-generator triples whose associators (both argument orders)
    never pass through the cap, filtered by degree arithmetic up front."""
    gens = monomial_generators(nvars, cap, cap)
    degs = [max(p.degree() for p in f.comps if not p.is_zero()) for f in gens]
    for (f, df), (g, dg), (h, dh) in itertools.product(
        zip(gens, degs), repeat=3
    ):
        if df + dg + dh - 2 > cap:
            continue
        if max(df + dg, dg + dh, df + dh) - 1 > cap:
            continue
        yield f, g, h


@pytest.mark.parametrize("nvars,cap", [(1, 6), (2, 4), (3, 3)])
def test_right_symmetry_and_closed_form_on_untruncated_monomials(nvars, cap):
    checked = 0
    for f, g, h in untruncated_monomial_triples(nvars, cap):
        a1 = witt_associator(f, g, h)  # raises if expansion != closed form
        a2 = witt_associator(f, h, g)
        assert a1.comps == a2.comps
        checked += 1
    assert checked > 0


def test_commutator_is_witt_bracket():
    # [u d_i, v d_j] = u d_i(v) d_j - v d_j(u) d_i  (from Lie-admissibility)
    gens = monomial_generators(2, 2, 5)
    for f, g in itertools.product(gens, repeat=2):
        lhs = vec_product(g, f).sub(vec_product(f, g))  # f o g = v d_j(u) d_i
        if lhs.truncated:
            continue
        n, cap = 2, 5
        expected = VecField.zero(n, cap)
        for i in range(n):
            u = f.comps[i]
            if u.is_zero():
                continue
            for j in range(n):
                v = g.comps[j]
                if v.is_zero():
                    continue
                comps1 = [TruncPoly.zero(n, cap)] * n
                comps1 = list(comps1)
                comps1[j] = u.mul(v.diff(i))
                comps2 = [TruncPoly.zero(n, cap) for _ in range(n)]
                comps2[i] = v.mul(u.diff(j))
                expected = expected.add(VecField.make(n, cap, comps1)).sub(
                    VecField.make(n, cap, comps2)
                )
        if expected.truncated:
            continue
        assert lhs.comps == expected.comps


def test_left_multiplications_commute_one_variable():
    report = check_novikov_truncated(1, 6)
    assert report.holds
    assert report.triples_checked > 0


def test_novikov_fails_two_variables_with_witness():
    report = check_novikov_truncated(2, 4, max_degree=2)
    assert not report.holds
    f, g, h = report.witness
    lhs = vec_product(f, vec_product(g, h))
    rhs = vec_product(g, vec_product(f, h))
    assert not lhs.truncated and not rhs.truncated
    assert lhs.comps != rhs.comps


def test_novikov_vacuous_on_empty_generator_budget():
    report = check_novikov_truncated(1, 2, max_degree=0)
    # only constant fields: every product is zero, trivially Novikov
    assert report.holds


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("max_degree", [0, 1, 2, 3])
def test_generator_count_is_the_number_of_generators(nvars, max_degree):
    gens = monomial_generators(nvars, max_degree, max(max_degree, 1))
    assert generator_count(nvars, max_degree) == len(gens)
