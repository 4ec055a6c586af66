import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from lsakit.polys import (
    Poly,
    UnsupportedDegreeError,
    all_roots_real,
    factor_small,
    poly_gcd,
    real_root_count,
    squarefree_decomposition,
)
from lsakit.scalars import QQ

from oracles import real_root_counts


def P(*coeffs):
    """Poly from descending coefficients, the way one writes them."""
    return Poly(list(reversed(coeffs)))


def test_poly_arithmetic_basics():
    p = P(1, 0, -2)  # t^2 - 2
    q = P(1, 1)  # t + 1
    assert (p * q).eval(3) == p.eval(3) * q.eval(3)
    quo, rem = p.divmod(q)
    assert quo * q + rem == p
    assert p.derivative() == P(2, 0)


def test_gcd():
    p = P(1, -1) * P(1, 2)
    q = P(1, -1) * P(1, 5)
    assert poly_gcd(p, q) == P(1, -1)


def test_real_root_count_t2_plus_1():
    assert real_root_count(P(1, 0, 1)) == 0


def test_real_root_count_t2_minus_2():
    assert real_root_count(P(1, 0, -2)) == 2


def test_real_root_count_constructed():
    p = P(1, -1) * P(1, -1) * P(1, 3)  # (t-1)^2 (t+3)
    assert real_root_count(p) == 2
    assert all_roots_real(p)


def test_real_root_count_zero_poly_rejected():
    with pytest.raises(ValueError):
        real_root_count(Poly.zero())


def test_all_roots_real_mixed():
    assert not all_roots_real(P(1, 0, 0, 1))  # t^3 + 1 has one real root
    assert all_roots_real(P(1, 0, -1))


def test_real_root_count_additive_on_disjoint_products():
    rng = random.Random(31)
    for _ in range(20):
        roots_a = rng.sample(range(-8, 9), rng.randint(1, 3))
        # q gets roots disjoint from p's plus an irreducible quadratic
        pool = [r for r in range(-20, 21) if r not in roots_a]
        roots_b = rng.sample(pool, rng.randint(1, 3))
        p = Poly([1])
        for r in roots_a:
            p = p * P(1, -r)
        q = P(1, 0, 1)
        for r in roots_b:
            q = q * P(1, -r)
        assert real_root_count(p * q) == real_root_count(p) + real_root_count(q)


def _power(p, m):
    out = Poly([1])
    for _ in range(m):
        out = out * p
    return out


# (polynomial, distinct real roots, all roots real)
SPECIAL_CASES = [
    (_power(P(1, 0, 1), 2), 0, False),  # (t^2 + 1)^2
    (P(1, 0, 1) * _power(P(1, -1), 3), 1, False),  # (t^2 + 1)(t - 1)^3
    (_power(P(1, -1), 3) * _power(P(1, 2), 2), 2, True),
    (P(-2, 8, -6), 2, True),  # -2(t - 1)(t - 3)
    (P(-1, 0, 0, 0, -1), 0, False),  # -(t^4 + 1)
    (P(1, 0, 0, 1, 0), 2, False),  # its chain has a negative lc, odd power
    (P(QQ(-1, 3), 0, 0, QQ(1, 12)), 1, False),
    # products sharing a factor
    (P(1, 0, -2) * P(1, 1) * P(1, 0, -2) * P(1, 0, 1), 3, False),
    (P(1, 0, -2) * P(1, -3) * P(1, 0, -2) * P(1, -3) * P(-1, 5), 4, True),
    (_power(P(1, 1, 1), 2) * P(1, -1), 1, False),
    (P(7), 0, True),
    (P(QQ(-5, 12)), 0, True),
]


@pytest.mark.parametrize("p, distinct, all_real", SPECIAL_CASES)
def test_real_roots_special_cases(p, distinct, all_real):
    assert real_root_count(p) == distinct
    assert all_roots_real(p) is all_real
    assert all_roots_real(p.scale(-3)) is all_real
    assert real_root_counts(p.coeffs)[0] == distinct


RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=12)
FACTORS = st.lists(RATIONALS, min_size=2, max_size=4).filter(lambda c: c[-1] != 0)


@st.composite
def root_polys(draw):
    """A nonzero rational polynomial of degree 0..10: random coefficients,
    or a scalar times a product of factors drawn, with repeats, from a small
    pool, so repeated and shared real and non-real factors are common."""
    if draw(st.booleans()):
        p = Poly(draw(st.lists(RATIONALS, min_size=1, max_size=11)))
        assume(not p.is_zero())
        return p
    p = Poly([draw(RATIONALS.filter(bool))])
    pool = draw(st.lists(FACTORS, min_size=1, max_size=3))
    for f in draw(st.lists(st.sampled_from(pool), max_size=6)):
        if p.degree + len(f) - 1 <= 10:
            p = p * Poly(f)
    return p


@given(root_polys())
@settings(max_examples=300, deadline=None)
def test_real_roots_match_yun_sturm_oracle(p):
    distinct, with_multiplicity = real_root_counts(p.coeffs)
    assert real_root_count(p) == distinct
    assert all_roots_real(p) == (with_multiplicity == p.degree)


@given(root_polys())
@settings(max_examples=60, deadline=None)
def test_real_roots_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                     for c in reversed(p.coeffs)], t)
    if p.degree == 0:
        assert real_root_count(p) == 0 and all_roots_real(p)
        return
    assert real_root_count(p) == sp.count_roots()
    assert all_roots_real(p) == (len(sympy.real_roots(sp)) == p.degree)


def test_factor_trivial_difference_of_squares():
    content, factors = factor_small(P(1, 0, -1))
    assert content == 1
    assert factors == [(P(1, -1), 1), (P(1, 1), 1)]


def test_factor_irreducible_quadratic():
    content, factors = factor_small(P(1, 0, 1))
    assert factors == [(P(1, 0, 1), 1)]


def test_factor_t4_minus_4():
    content, factors = factor_small(P(1, 0, 0, 0, -4))
    assert content == 1
    assert factors == [(P(1, 0, -2), 1), (P(1, 0, 2), 1)]
    prod = Poly([content])
    for f, m in factors:
        for _ in range(m):
            prod = prod * f
    assert prod == P(1, 0, 0, 0, -4)


def test_factor_with_multiplicity_and_content():
    p = (P(1, -1) * P(1, -1) * P(2, 3)).scale(QQ(1, 2))
    content, factors = factor_small(p)
    prod = Poly([content])
    for f, m in factors:
        for _ in range(m):
            prod = prod * f
    assert prod == p
    assert all(f.leading() == 1 for f, _ in factors)


def test_factor_degree_bound():
    with pytest.raises(UnsupportedDegreeError):
        factor_small(Poly.x_power(9))


def test_factor_degree_8_biquadratic():
    # (t^4 - 2)(t^4 + t^2 + 1) where the second factor splits further
    p = P(1, 0, 0, 0, -2) * P(1, 0, 1, 0, 1)
    content, factors = factor_small(p)
    prod = Poly([content])
    for f, m in factors:
        for _ in range(m):
            prod = prod * f
    assert prod == p
    assert all(f.degree >= 1 for f, _ in factors)
    # t^4+t^2+1 = (t^2+t+1)(t^2-t+1), t^4-2 irreducible
    assert sorted(f.degree for f, _ in factors) == [2, 2, 4]


@given(st.lists(st.integers(-4, 4), min_size=2, max_size=7))
@settings(max_examples=40, deadline=None)
def test_factor_remultiplies(coeffs):
    p = Poly(coeffs)
    if p.is_zero() or p.degree == 0:
        return
    content, factors = factor_small(p)
    prod = Poly([content])
    for f, m in factors:
        for _ in range(m):
            prod = prod * f
    assert prod == p


def test_squarefree_decomposition_structure():
    p = P(1, -1) * P(1, -1) * P(1, -1) * P(1, 2)
    content, parts = squarefree_decomposition(p)
    assert [(q, m) for q, m in parts] == [(P(1, 2), 1), (P(1, -1), 3)]
