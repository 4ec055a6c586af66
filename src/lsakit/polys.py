"""Exact univariate polynomials over the rationals.

Provides the pieces the algebra layer leans on: Sturm-sequence real root
counting on one primitive integer chain per polynomial (for the "all
eigenvalues real" clan test) and rational factorization of small-degree
polynomials by square-free decomposition plus Kronecker's
interpolation-divisor search (exact, perfectly adequate at the desk degrees
<= 8 that arise from characteristic polynomials here).
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .scalars import QQ, ZERO, ONE


class Poly:
    """Coefficients ascending by degree; the zero polynomial has no coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [QQ(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def x_power(cls, k: int, c=1) -> "Poly":
        return cls([ZERO] * k + [QQ(c)])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            term = "1" if (c == 1 and k > 0) else ("-1" if (c == -1 and k > 0) else str(c))
            if k == 1:
                term = f"{term}*t" if term not in ("1", "-1") else ("t" if term == "1" else "-t")
            elif k > 1:
                term = f"{term}*t^{k}" if term not in ("1", "-1") else (f"t^{k}" if term == "1" else f"-t^{k}")
            parts.append(term)
        return "Poly(" + " + ".join(parts).replace("+ -", "- ") + ")"

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def scale(self, c) -> "Poly":
        c = QQ(c)
        return Poly([c * x for x in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Poly(out)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), self
        quo = [ZERO] * (dq + 1)
        lead = other.leading()
        oc = other.coeffs
        for k in range(dq, -1, -1):
            top = rem[k + len(oc) - 1]
            if top == 0:
                continue
            f = top / lead
            quo[k] = f
            for i, c in enumerate(oc):
                rem[k + i] -= f * c
        return Poly(quo), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        x = QQ(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        return self if lead == 1 else self.scale(ONE / lead)

    def divides(self, other: "Poly") -> bool:
        return other.divmod(self)[1].is_zero()


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        r = a % b
        a, b = b, (r.monic() if not r.is_zero() else Poly.zero())
    return a.monic() if not a.is_zero() else Poly.zero()


def squarefree_decomposition(p: Poly) -> tuple[object, list[tuple[Poly, int]]]:
    """Yun's algorithm: p = content * prod q_i^i with q_i monic, square-free,
    pairwise coprime.  Returns (content, [(q_i, i), ...]) with trivial q_i = 1
    omitted."""
    if p.is_zero():
        raise ValueError("square-free decomposition of the zero polynomial")
    content = p.leading()
    f = p.monic()
    if f.degree == 0:
        return content, []
    d = f.derivative()
    a = poly_gcd(f, d)
    b = f.exact_div(a)
    c = d.exact_div(a) - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        g = poly_gcd(b, c)
        if g.degree > 0:
            out.append((g, i))
        b = b.exact_div(g)
        c = c.exact_div(g) - b.derivative()
        i += 1
    return content, out


def _primitive(cs: list[int]) -> list[int]:
    g = math.gcd(*cs)
    return [c // g for c in cs]


def _root_counts(p: Poly) -> tuple[int, int]:
    """(distinct real roots, distinct complex roots) of p, degree >= 1, from
    one Sturm chain of primitive integer lists: p over Z, p', then the
    negated pseudo-remainders -(|lc(b)|^(delta+1) a mod b), each made
    primitive; only positive factors are taken out, so every sign is kept.
    The chain ends at g = gcd(p, p') and is g times a Sturm chain of p/g
    (Collins 1967): square-free p or not, its sign changes at -oo less those
    at +oo count the real roots, and deg p - deg g the complex ones."""
    d = math.lcm(*(c.denominator for c in p.coeffs))
    a = _primitive([c.numerator * (d // c.denominator) for c in p.coeffs])
    b = _primitive([k * c for k, c in enumerate(a)][1:])
    chain = [a, b]
    while len(b) > 1:
        r, lb, sb = list(a), abs(b[-1]), (1 if b[-1] > 0 else -1)
        for k in range(len(a) - len(b), -1, -1):
            top = sb * r.pop()
            r = [lb * c for c in r]
            for i, c in enumerate(b[:-1]):
                r[k + i] -= top * c
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
        a, b = b, _primitive([-c for c in r])
        chain.append(b)
    # each member's sign at -oo and at +oo
    ends = [((q[-1] > 0) == (len(q) % 2 == 1), q[-1] > 0) for q in chain]
    real = sum((m != n) - (s != t) for (m, s), (n, t) in zip(ends, ends[1:]))
    return real, p.degree - len(b) + 1


def real_root_count(p: Poly) -> int:
    """Number of *distinct* real roots, by an exact Sturm sequence."""
    if p.is_zero():
        raise ValueError("root count of the zero polynomial")
    return _root_counts(p)[0] if p.degree > 0 else 0


def all_roots_real(p: Poly) -> bool:
    """True iff every complex root of p is real (counted with multiplicity)."""
    if p.is_zero():
        raise ValueError("all-roots-real test on the zero polynomial")
    real, distinct = _root_counts(p) if p.degree > 0 else (0, 0)
    return real == distinct


# ---------------------------------------------------------------------------
# Rational factorization (Kronecker), degree <= 8.
# ---------------------------------------------------------------------------


class UnsupportedDegreeError(ValueError):
    pass


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Deterministic for n < 3.3e24 with these bases.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in itertools.count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


def _divisors(n: int) -> list[int]:
    facs = _prime_factors(abs(n))
    divs = [1]
    for p, e in facs.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _to_primitive_int(p: Poly) -> tuple[object, list[int]]:
    """p = scale * P with P primitive integer coefficients, positive leading."""
    denom = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * denom) for c in p.coeffs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
        g = -g
    return QQ(g, denom), ints


def _int_poly_eval(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _rational_roots(coeffs: list[int]):
    """Rational roots of a primitive integer polynomial (root theorem)."""
    k = 0
    while coeffs[k] == 0:
        k += 1
    if k:
        yield QQ(0)
    body = coeffs[k:]
    const, lead = body[0], body[-1]
    for num in _divisors(const):
        for den in _divisors(lead):
            for r in (QQ(num, den), QQ(-num, den)):
                acc = ZERO
                for c in reversed(body):
                    acc = acc * r + c
                if acc == 0:
                    yield r


def _interpolate(points: list[tuple[int, int]]) -> Poly:
    """Lagrange interpolation through integer points."""
    out = Poly.zero()
    for i, (xi, yi) in enumerate(points):
        num = Poly([QQ(yi)])
        den = 1
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            num = num * Poly([QQ(-xj), ONE])
            den *= xi - xj
        out = out + num.scale(QQ(1, den))
    return out


# -- modular degree-pattern prefilter ---------------------------------------
#
# Kronecker's divisor search explodes on irreducible inputs (it only stops
# after exhausting every divisor tuple).  Distinct-degree factorization of
# the reduction mod a few small primes yields the multiset of irreducible
# factor degrees there; any rational factor degree must be a subset sum of
# every usable pattern.  An empty intersection certifies irreducibility and
# skips the search entirely; otherwise only the feasible degrees are tried.

_FILTER_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)


def _mod_poly_norm(coeffs: list[int], q: int) -> tuple[int, ...]:
    out = [c % q for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _mod_divmod(a, b, q: int):
    b_lead_inv = pow(b[-1], -1, q)
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        top = rem[k + len(b) - 1] % q
        if top:
            f = top * b_lead_inv % q
            quo[k] = f
            for i, c in enumerate(b):
                rem[k + i] = (rem[k + i] - f * c) % q
    while rem and rem[-1] % q == 0:
        rem.pop()
    return tuple(quo), tuple(c % q for c in rem)


def _mod_gcd(a, b, q: int):
    a = _mod_poly_norm(list(a), q)
    b = _mod_poly_norm(list(b), q)
    while b:
        a, b = b, _mod_divmod(a, b, q)[1]
    if a:
        inv = pow(a[-1], -1, q)
        a = tuple(c * inv % q for c in a)
    return a


def _mod_mulmod(a, b, m, q: int):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
    return _mod_divmod(tuple(out), m, q)[1]


def _mod_pow_q(w, f, q: int):
    """w^q mod f over F_q by square-and-multiply (q is a small prime)."""
    result = (1,)
    power = w
    exp = q
    while exp:
        if exp & 1:
            result = _mod_mulmod(result, power, f, q)
        power = _mod_mulmod(power, power, f, q)
        exp >>= 1
    return result


def _mod_degree_pattern(coeffs: list[int], q: int) -> list[int] | None:
    """Multiset of irreducible factor degrees of the reduction mod q, or
    None when the reduction is unusable (degree drop or repeated factor)."""
    f = _mod_poly_norm(coeffs, q)
    if len(f) != len(coeffs):
        return None
    deriv = tuple(c * k % q for k, c in enumerate(f) if k >= 1)
    while deriv and deriv[-1] == 0:
        deriv = deriv[:-1]
    if not deriv or len(_mod_gcd(f, deriv, q)) > 1:
        return None
    pattern = []
    w = (0, 1)  # x; raised one q-th power per round so w = x^(q^d) mod f
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        w = _mod_pow_q(w, f, q)
        diff = list(w) + [0] * max(0, 2 - len(w))
        diff[1] = (diff[1] - 1) % q
        g = _mod_gcd(f, tuple(diff), q)
        if len(g) > 1:
            pattern.extend([d] * ((len(g) - 1) // d))
            f = _mod_divmod(f, g, q)[0]
            if len(f) <= 1:
                break
            w = _mod_divmod(w, f, q)[1]
    if len(f) > 1:
        pattern.append(len(f) - 1)
    return sorted(pattern)


def _subset_sums(pattern: list[int]) -> set[int]:
    sums = {0}
    for d in pattern:
        sums |= {s + d for s in sums}
    return sums


def _feasible_factor_degrees(coeffs: list[int]) -> set[int]:
    """Proper factor degrees compatible with a handful of modular degree
    patterns; empty means certified irreducible."""
    deg = len(coeffs) - 1
    feasible = set(range(1, deg))
    usable = 0
    for q in _FILTER_PRIMES:
        pattern = _mod_degree_pattern(coeffs, q)
        if pattern is None:
            continue
        feasible &= _subset_sums(pattern)
        usable += 1
        if usable >= 3 or not (feasible - {0, deg}):
            break
    feasible -= {0, deg}
    return feasible


def _kronecker_factor(coeffs: list[int], degrees) -> Poly | None:
    """A monic proper factor (over Q) of a primitive square-free integer
    polynomial with no rational roots, searching only the given degrees;
    None when every candidate divisor tuple is exhausted."""
    p = Poly(coeffs)
    points = [0, 1, -1, 2, -2, 3, -3, 4, -4]
    evals = []
    for x in points:
        v = _int_poly_eval(coeffs, x)
        if v == 0:  # no rational roots by assumption, but stay safe
            return Poly([QQ(-x), ONE])
        evals.append((x, v, _divisors(v)))
    for g in sorted(degrees):
        pts = sorted(evals, key=lambda t: len(t[2]))[: g + 1]
        xs = [t[0] for t in pts]
        div_lists = [t[2] for t in pts]
        used = {t[0] for t in pts}
        # Sign of the first value fixed positive: factors come in +/- pairs.
        choices = [list(div_lists[0])] + [
            [s * d for d in dl for s in (1, -1)] for dl in div_lists[1:]
        ]
        for combo in itertools.product(*choices):
            cand = _interpolate(list(zip(xs, combo)))
            if cand.degree != g:
                continue
            if cand.leading() < 0:
                cand = -cand
            ok = True
            for x, v, _divs in evals:
                if x in used:
                    continue
                qv = cand.eval(x)
                if qv == 0 or v % qv != 0:
                    ok = False
                    break
            if ok and cand.divides(p):
                return cand.monic()
    return None


def _factor_squarefree(q: Poly) -> list[Poly]:
    """Irreducible monic factors of a monic square-free polynomial."""
    out = []
    rem = q
    # Linear factors first.
    _, ints = _to_primitive_int(rem)
    for r in set(_rational_roots(ints)):
        lin = Poly([-r, ONE])
        while lin.divides(rem):
            out.append(lin)
            rem = rem.exact_div(lin)
    while rem.degree > 1:
        _, ints = _to_primitive_int(rem)
        degrees = {g for g in _feasible_factor_degrees(ints) if g <= rem.degree // 2}
        f = _kronecker_factor(ints, degrees) if degrees else None
        if f is None:
            break
        out.append(f)
        rem = rem.exact_div(f).monic()
    if rem.degree >= 1:
        out.append(rem.monic())
    return sorted(out, key=lambda f: (f.degree, f.coeffs))


def factor_small(p: Poly) -> tuple[object, list[tuple[Poly, int]]]:
    """Factor p over Q: returns (content, [(monic irreducible, multiplicity)]).

    content * prod factor^mult reproduces p exactly.  Degrees above 8 are
    rejected; Kronecker search is exact but exponential.
    """
    if p.is_zero():
        raise ValueError("factorization of the zero polynomial")
    if p.degree > 8:
        raise UnsupportedDegreeError(f"degree {p.degree} > 8 not supported")
    content, sqfree = squarefree_decomposition(p)
    out: list[tuple[Poly, int]] = []
    for q, mult in sqfree:
        for f in _factor_squarefree(q):
            out.append((f, mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs, fm[1]))
    return content, out
