"""Truncated vector-field algebras over polynomial coefficients.

Vec(n) carries the right-symmetric product  u d_i o v d_j = v d_j(u) d_i.
Coefficients live in K[x_1..x_n] truncated above a total-degree cap: any
product that would overflow the cap drops the overflowing monomials and
raises a `truncated` flag on the result.  Every identity is only asserted
on inputs whose exact results stay below the cap; asking for an exact
comparison of a truncated value raises TruncationError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

from .scalars import QQ, ZERO
from .radicals import InternalInconsistencyError


# generator triples one `witt --props` run may visit; the largest accepted
# input, NVARS 7 at CAP 1 (56 generators), takes about 30 s on a 2-vCPU host
MAX_WITT_TRIPLES = 200_000


class TruncationError(ValueError):
    pass


_ZERO_POLYS: dict = {}


@dataclass(frozen=True)
class TruncPoly:
    nvars: int
    cap: int
    coeffs: tuple  # sorted tuple of (exponent tuple, scalar)
    truncated: bool = False

    @classmethod
    def make(cls, nvars: int, cap: int, coeffs: Mapping, truncated: bool = False):
        clean = {}
        trunc = truncated
        for mono, c in coeffs.items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent {mono} for {nvars} variables")
            c = QQ(c)
            if c == 0:
                continue
            if sum(mono) > cap:
                trunc = True
                continue
            clean[mono] = clean.get(mono, ZERO) + c
        items = tuple(sorted((m, c) for m, c in clean.items() if c != 0))
        return cls(nvars, cap, items, trunc)

    @classmethod
    def monomial(cls, nvars: int, cap: int, mono, c=1):
        return cls.make(nvars, cap, {tuple(mono): c})

    @classmethod
    def zero(cls, nvars: int, cap: int):
        key = (nvars, cap)
        z = _ZERO_POLYS.get(key)
        if z is None:
            z = _ZERO_POLYS[key] = cls(nvars, cap, (), False)
        return z

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max((sum(m) for m, _ in self.coeffs), default=-1)

    def _compat(self, other: "TruncPoly"):
        if (self.nvars, self.cap) != (other.nvars, other.cap):
            raise ValueError("mixed variable count or degree cap")

    # arithmetic constructs results directly: operands are already clean
    # (validated monomials, no zero coefficients, sorted term order)

    def add(self, other: "TruncPoly") -> "TruncPoly":
        self._compat(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs:
            s = out.get(m)
            if s is None:
                out[m] = c
            elif s + c == 0:
                del out[m]
            else:
                out[m] = s + c
        return TruncPoly(
            self.nvars,
            self.cap,
            tuple(sorted(out.items())),
            self.truncated or other.truncated,
        )

    def scale(self, c) -> "TruncPoly":
        c = QQ(c)
        if c == 0:
            return TruncPoly(self.nvars, self.cap, (), self.truncated)
        return TruncPoly(
            self.nvars,
            self.cap,
            tuple((m, c * v) for m, v in self.coeffs),
            self.truncated,
        )

    def mul(self, other: "TruncPoly") -> "TruncPoly":
        self._compat(other)
        out: dict = {}
        cap = self.cap
        trunc = self.truncated or other.truncated
        for m1, c1 in self.coeffs:
            d1 = sum(m1)
            for m2, c2 in other.coeffs:
                if d1 + sum(m2) > cap:
                    trunc = True
                    continue
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, ZERO) + c1 * c2
        return TruncPoly(
            self.nvars,
            self.cap,
            tuple(sorted((m, c) for m, c in out.items() if c != 0)),
            trunc,
        )

    def diff(self, var: int) -> "TruncPoly":
        """d/dx_var (0-based)."""
        out = {}
        for m, c in self.coeffs:
            if m[var] > 0:
                dm = m[:var] + (m[var] - 1,) + m[var + 1 :]
                out[dm] = out.get(dm, ZERO) + c * m[var]
        return TruncPoly(
            self.nvars, self.cap, tuple(sorted(out.items())), self.truncated
        )


@dataclass(frozen=True)
class VecField:
    nvars: int
    cap: int
    comps: tuple  # tuple of TruncPoly, one per direction
    truncated: bool = False

    @classmethod
    def make(cls, nvars: int, cap: int, comps, truncated: bool = False):
        polys = []
        trunc = truncated
        for p in comps:
            if (p.nvars, p.cap) != (nvars, cap):
                raise ValueError("component incompatible with field shape")
            trunc = trunc or p.truncated
            polys.append(p)
        return cls(nvars, cap, tuple(polys), trunc)

    @classmethod
    def term(cls, nvars: int, cap: int, mono, direction: int, c=1):
        """c * x^mono d_direction (0-based direction)."""
        comps = [TruncPoly.zero(nvars, cap) for _ in range(nvars)]
        comps[direction] = TruncPoly.monomial(nvars, cap, mono, c)
        return cls.make(nvars, cap, comps)

    @classmethod
    def zero(cls, nvars: int, cap: int):
        return cls.make(nvars, cap, [TruncPoly.zero(nvars, cap)] * nvars)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.comps)

    def add(self, other: "VecField") -> "VecField":
        if (self.nvars, self.cap) != (other.nvars, other.cap):
            raise ValueError("mixed field shapes")
        return VecField.make(
            self.nvars,
            self.cap,
            [a.add(b) for a, b in zip(self.comps, other.comps)],
            self.truncated or other.truncated,
        )

    def sub(self, other: "VecField") -> "VecField":
        return self.add(other.scale(-1))

    def scale(self, c) -> "VecField":
        return VecField.make(
            self.nvars, self.cap, [p.scale(c) for p in self.comps], self.truncated
        )

    def require_exact(self) -> "VecField":
        if self.truncated:
            raise TruncationError(
                "result passed through the degree cap; exact comparison invalid"
            )
        return self


def vec_product(f: VecField, g: VecField) -> VecField:
    """(u d_i) o (v d_j) = v d_j(u) d_i, extended bilinearly."""
    if (f.nvars, f.cap) != (g.nvars, g.cap):
        raise ValueError("mixed field shapes")
    n, cap = f.nvars, f.cap
    acc = [TruncPoly.zero(n, cap)] * n
    trunc = f.truncated or g.truncated
    for i in range(n):
        u = f.comps[i]
        if u.is_zero():
            continue
        for j in range(n):
            v = g.comps[j]
            if v.is_zero():
                continue
            du = u.diff(j)
            if du.is_zero():
                continue
            w = v.mul(du)
            trunc = trunc or w.truncated
            acc[i] = acc[i].add(w) if acc[i].coeffs else w
    return VecField(n, cap, tuple(acc), trunc or any(p.truncated for p in acc))


def vec_associator(f: VecField, g: VecField, h: VecField) -> VecField:
    return vec_product(vec_product(f, g), h).sub(vec_product(f, vec_product(g, h)))


def witt_associator(f: VecField, g: VecField, h: VecField) -> VecField:
    """The associator, computed both by definitional expansion and by the
    closed form (u d_i, v d_j, w d_k) = w v d_k(d_j(u)) d_i on terms; the
    two must agree exactly (TruncationError if the cap interferes)."""
    expansion = vec_associator(f, g, h).require_exact()
    n, cap = f.nvars, f.cap
    closed = VecField.zero(n, cap)
    for i in range(n):
        u = f.comps[i]
        if u.is_zero():
            continue
        for j in range(n):
            v = g.comps[j]
            if v.is_zero():
                continue
            for k in range(n):
                w = h.comps[k]
                if w.is_zero():
                    continue
                dd = u.diff(j).diff(k)
                if dd.is_zero():
                    continue
                # multiply the low-degree factor first: the cap is a
                # representation limit, not part of the algebra
                poly = dd.mul(v).mul(w)
                comps = [TruncPoly.zero(n, cap) for _ in range(n)]
                comps[i] = poly
                closed = closed.add(VecField.make(n, cap, comps))
    closed = closed.require_exact()
    if expansion.comps != closed.comps:
        raise InternalInconsistencyError(
            "associator expansion disagrees with the closed form"
        )
    return expansion


def generator_count(nvars: int, max_degree: int) -> int:
    """len(monomial_generators(nvars, max_degree, cap)), in closed form:
    nvars directions times C(nvars + max_degree, max_degree) monomials."""
    return nvars * math.comb(nvars + max_degree, max_degree)


def monomial_generators(nvars: int, max_degree: int, cap: int):
    """All monomial vector fields x^m d_i with deg <= max_degree."""
    gens = []
    for total in range(max_degree + 1):
        for mono in itertools.product(range(total + 1), repeat=nvars):
            if sum(mono) != total:
                continue
            for direction in range(nvars):
                gens.append(VecField.term(nvars, cap, mono, direction))
    return gens


@dataclass(frozen=True)
class NovikovReport:
    nvars: int
    cap: int
    holds: bool
    witness: tuple | None  # (f, g, h) violating triple, if any
    triples_checked: int


def check_novikov_truncated(nvars: int, cap: int, max_degree: int | None = None) -> NovikovReport:
    """Test x o (y o z) = y o (x o z) on all monomial-generator triples whose
    intermediate and final results stay under the cap.  True for one
    variable; a violating triple exists for two or more."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    max_degree = cap if max_degree is None else max_degree
    gens = monomial_generators(nvars, max_degree, cap)
    checked = 0
    for f, g, h in itertools.product(gens, repeat=3):
        lhs = vec_product(f, vec_product(g, h))
        rhs = vec_product(g, vec_product(f, h))
        if lhs.truncated or rhs.truncated:
            continue
        checked += 1
        if lhs.comps != rhs.comps:
            return NovikovReport(nvars, cap, False, (f, g, h), checked)
    return NovikovReport(nvars, cap, True, None, checked)
