"""Rooted trees, grafting, and the labelled root-append / insertion products.

Trees are unordered: a node holds a multiset of subtrees.  We keep children
sorted by (size, serialization), so structurally equal trees are identical
objects in the `==` sense and serialization is a canonical form.  The
serialization grammar is `label[child,child,...]` with `[]` omitted at
leaves and `o` as the unlabelled node label; the 3-chain is `o[o[o]]`, the
cherry `o[o,o]`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping

from .scalars import QQ, ZERO, rat_str

MAX_ENUM_ORDER = 8
# Largest order `lsakit trees --count` accepts; the count is quadratic in it.
MAX_COUNT_ORDER = 1000


class RootedTree:
    __slots__ = ("label", "children", "size", "serial", "_hash")

    def __init__(self, label: str = "o", children: Iterable["RootedTree"] = ()):
        if not label or any(ch in "[]," for ch in label):
            raise ValueError(f"bad node label {label!r}")
        kids = sorted(children, key=lambda t: (t.size, t.serial))
        self.label = label
        self.children = tuple(kids)
        self.size = 1 + sum(t.size for t in kids)
        if kids:
            self.serial = f"{label}[{','.join(t.serial for t in kids)}]"
        else:
            self.serial = label
        self._hash = hash(self.serial)

    def __eq__(self, other):
        return isinstance(other, RootedTree) and self.serial == other.serial

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RootedTree({self.serial})"

    def sort_key(self):
        return (self.size, self.serial)


def leaf(label: str = "o") -> RootedTree:
    return RootedTree(label)


def canonicalize(t: RootedTree) -> RootedTree:
    """Rebuild bottom-up; idempotent (construction already canonicalizes)."""
    return RootedTree(t.label, (canonicalize(c) for c in t.children))


def parse_tree(text: str) -> RootedTree:
    """Parse the `label[child,...]` serialization (children in any order)."""
    pos = 0

    def node() -> RootedTree:
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos] not in "[],":
            pos += 1
        label = text[start:pos]
        if not label:
            raise ValueError(f"missing label at position {start} in {text!r}")
        kids = []
        if pos < len(text) and text[pos] == "[":
            pos += 1
            while True:
                kids.append(node())
                if pos >= len(text):
                    raise ValueError(f"unterminated '[' in {text!r}")
                if text[pos] == ",":
                    pos += 1
                    continue
                if text[pos] == "]":
                    pos += 1
                    break
                raise ValueError(f"unexpected {text[pos]!r} at {pos} in {text!r}")
        return RootedTree(label, kids)

    t = node()
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos} in {text!r}")
    return t


class TreeSum:
    """Formal rational combination of canonical rooted trees."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[RootedTree, object] | None = None):
        clean = {}
        if terms:
            for t, c in terms.items():
                c = QQ(c)
                if c != 0:
                    clean[t] = c
        self.terms = clean

    @classmethod
    def of(cls, t: RootedTree, coeff=1) -> "TreeSum":
        return cls({t: coeff})

    def __eq__(self, other):
        return isinstance(other, TreeSum) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TreeSum") -> "TreeSum":
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, ZERO) + c
        return TreeSum(out)

    def __sub__(self, other: "TreeSum") -> "TreeSum":
        return self + other.scale(-1)

    def scale(self, c) -> "TreeSum":
        c = QQ(c)
        return TreeSum({t: c * v for t, v in self.terms.items()})

    def coefficient_mass(self):
        return sum(self.terms.values(), ZERO)

    def sorted_terms(self) -> list[tuple[RootedTree, object]]:
        return sorted(self.terms.items(), key=lambda tc: tc[0].sort_key())

    def __repr__(self):
        if not self.terms:
            return "TreeSum(0)"
        body = " + ".join(
            (f"{rat_str(c)}*{t.serial}" if c != 1 else t.serial)
            for t, c in self.sorted_terms()
        )
        return f"TreeSum({body})"


def _graft_everywhere(t1: RootedTree, t2: RootedTree) -> list[RootedTree]:
    """One tree per vertex of t1: t2's root attached below that vertex."""
    results = [RootedTree(t1.label, t1.children + (t2,))]
    for idx, child in enumerate(t1.children):
        rest = t1.children[:idx] + t1.children[idx + 1 :]
        for grafted in _graft_everywhere(child, t2):
            results.append(RootedTree(t1.label, rest + (grafted,)))
    return results


def graft_product(t1: RootedTree, t2: RootedTree) -> TreeSum:
    """Sum over all vertices v of t1 of (t2 grafted below v); graftings that
    coincide after canonicalization merge with added multiplicity, so the
    total coefficient mass is the vertex count of t1."""
    acc: dict[RootedTree, object] = {}
    for t in _graft_everywhere(t1, t2):
        acc[t] = acc.get(t, ZERO) + QQ(1)
    return TreeSum(acc)


def graft_product_sum(a: TreeSum, b: TreeSum) -> TreeSum:
    out = TreeSum()
    for t1, c1 in a.terms.items():
        for t2, c2 in b.terms.items():
            out = out + graft_product(t1, t2).scale(c1 * c2)
    return out


def labelled_bullet(t: RootedTree, y: RootedTree) -> RootedTree:
    """Append y as a new child of the root only."""
    return RootedTree(t.label, t.children + (y,))


def labelled_circ(t: RootedTree, y: RootedTree) -> TreeSum:
    """Recursive insertion product:
    v o y = v * y, and
    T(v,x_1..x_n) o y = T(v,x_1..x_n,y) + sum_i T(v,..x_i dropped..) * (x_i o y).
    Coincides with graft_product termwise (both sum over all vertices)."""
    acc: dict[RootedTree, object] = {labelled_bullet(t, y): QQ(1)}
    for idx, child in enumerate(t.children):
        rest = RootedTree(t.label, t.children[:idx] + t.children[idx + 1 :])
        for s, c in labelled_circ(child, y).terms.items():
            merged = labelled_bullet(rest, s)
            acc[merged] = acc.get(merged, ZERO) + c
    return TreeSum(acc)


def enumerate_trees(order: int) -> list[RootedTree]:
    """All isomorphism classes of unlabelled rooted trees with `order`
    vertices, canonical and deterministically sorted.  Orders up to 8."""
    if not 1 <= order <= MAX_ENUM_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ENUM_ORDER}, got {order}")
    return _enumerate(order)


@lru_cache(maxsize=None)
def _enumerate(order: int) -> list[RootedTree]:
    if order == 1:
        return [leaf()]
    smaller: list[RootedTree] = []
    for m in range(1, order):
        smaller.extend(_enumerate(m))
    smaller.sort(key=RootedTree.sort_key)
    out = set()

    def extend(remaining: int, min_idx: int, chosen: tuple):
        if remaining == 0:
            out.add(RootedTree("o", chosen))
            return
        for idx in range(min_idx, len(smaller)):
            t = smaller[idx]
            if t.size > remaining:
                break
            extend(remaining - t.size, idx, chosen + (t,))

    extend(order - 1, 0, ())
    return sorted(out, key=RootedTree.sort_key)


def rooted_tree_count(order: int) -> int:
    """Number of unlabelled rooted trees, by the classical convolution
    recurrence (n-1) a(n) = sum_k s(k) a(n-k) with s(k) = sum_{d | k} d a(d)
    (independent of the exhaustive generator).  Computed bottom-up over the
    orders, with each a(d) added to the divisor sums of its multiples, so the
    cost is quadratic and no order recurses."""
    if order < 1:
        raise ValueError("order must be >= 1")
    a = [0] * (order + 1)
    s = [0] * (order + 1)
    for n in range(1, order + 1):
        a[n] = 1 if n == 1 else sum(s[k] * a[n - k] for k in range(1, n)) // (n - 1)
        for m in range(n, order + 1, n):
            s[m] += n * a[n]
    return a[order]
