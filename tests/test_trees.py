import itertools
import random

import pytest

from lsakit.trees import (
    RootedTree,
    TreeSum,
    canonicalize,
    enumerate_trees,
    graft_product,
    graft_product_sum,
    labelled_bullet,
    labelled_circ,
    leaf,
    parse_tree,
    rooted_tree_count,
)


def T(label, *children):
    return RootedTree(label, children)


def test_canonical_labelled_pair():
    # T(a,b,T(b,a,b)) == T(a,T(b,b,a),b) as labelled multiset trees
    t1 = T("a", leaf("b"), T("b", leaf("a"), leaf("b")))
    t2 = T("a", T("b", leaf("b"), leaf("a")), leaf("b"))
    assert t1 == t2
    assert t1.serial == t2.serial


def test_canonicalize_idempotent():
    t = parse_tree("o[o[o],o,o[o,o]]")
    assert canonicalize(t) == t
    assert canonicalize(canonicalize(t)) == canonicalize(t)


def test_mirror_children_same_class():
    assert T("o", leaf(), T("o", leaf())) == T("o", T("o", leaf()), leaf())


def test_serialization_round_trip():
    for s in ["o", "o[o]", "o[o[o]]", "o[o,o]", "o[o,o[o]]", "a[b,b[a,b]]"]:
        assert parse_tree(s).serial == s


def test_parse_rejects_garbage():
    for bad in ["", "o[", "o[o,]", "o]o", "o[o]x"]:
        with pytest.raises(ValueError):
            parse_tree(bad)


def test_graft_single_nodes():
    chain2 = parse_tree("o[o]")
    assert graft_product(leaf(), leaf()) == TreeSum.of(chain2)


def test_graft_chain_onto_node():
    chain2 = parse_tree("o[o]")
    expected = TreeSum({parse_tree("o[o[o]]"): 1, parse_tree("o[o,o]"): 1})
    assert graft_product(chain2, leaf()) == expected


def test_graft_cherry_collision_coefficients():
    cherry = parse_tree("o[o,o]")
    prod = graft_product(cherry, leaf())
    assert prod.terms[parse_tree("o[o,o,o]")] == 1
    assert prod.terms[parse_tree("o[o,o[o]]")] == 2
    assert prod.coefficient_mass() == 3


def test_graft_coefficient_mass_is_vertex_count():
    trees = [t for m in range(1, 6) for t in enumerate_trees(m)]
    rng = random.Random(12)
    for _ in range(40):
        t1, t2 = rng.choice(trees), rng.choice(trees)
        if t1.size + t2.size > 9:
            continue
        assert graft_product(t1, t2).coefficient_mass() == t1.size


def test_enumeration_counts_match_recurrence():
    expected = [1, 1, 2, 4, 9, 20, 48, 115]
    for order, count in enumerate(expected, start=1):
        assert len(enumerate_trees(order)) == count
        assert rooted_tree_count(order) == count


def test_rooted_tree_count_order_twenty():
    assert rooted_tree_count(20) == 12826228  # OEIS A000081


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        enumerate_trees(0)
    with pytest.raises(ValueError):
        enumerate_trees(9)


def test_enumeration_trees_are_distinct_and_right_sized():
    for order in range(1, 7):
        ts = enumerate_trees(order)
        assert len(set(ts)) == len(ts)
        assert all(t.size == order for t in ts)


def test_graft_right_symmetry_exhaustive_to_order_4():
    trees = [t for m in range(1, 5) for t in enumerate_trees(m)]
    for t1, t2, t3 in itertools.product(trees, repeat=3):
        a1 = graft_product_sum(graft_product(t1, t2), TreeSum.of(t3)) - graft_product_sum(
            TreeSum.of(t1), graft_product(t2, t3)
        )
        a2 = graft_product_sum(graft_product(t1, t3), TreeSum.of(t2)) - graft_product_sum(
            TreeSum.of(t1), graft_product(t3, t2)
        )
        assert a1 == a2


def test_graft_right_symmetry_seeded_to_order_6():
    trees = [t for m in range(1, 7) for t in enumerate_trees(m)]
    rng = random.Random(0xC0FFEE)
    for _ in range(60):
        t1, t2, t3 = (rng.choice(trees) for _ in range(3))
        a1 = graft_product_sum(graft_product(t1, t2), TreeSum.of(t3)) - graft_product_sum(
            TreeSum.of(t1), graft_product(t2, t3)
        )
        a2 = graft_product_sum(graft_product(t1, t3), TreeSum.of(t2)) - graft_product_sum(
            TreeSum.of(t1), graft_product(t3, t2)
        )
        assert a1 == a2


def test_bullet_base_cases():
    a, b, c = leaf("a"), leaf("b"), leaf("c")
    assert labelled_bullet(a, b) == T("a", leaf("b"))
    assert labelled_bullet(T("a", leaf("b")), c) == T("a", leaf("b"), leaf("c"))


def test_bullet_right_swap_identity():
    # (a*b)*c == (a*c)*b
    a, b, c = leaf("a"), leaf("b"), leaf("c")
    assert labelled_bullet(labelled_bullet(a, b), c) == labelled_bullet(
        labelled_bullet(a, c), b
    )


def test_circ_base_case():
    assert labelled_circ(leaf("v"), leaf("y")) == TreeSum.of(T("v", leaf("y")))


def test_circ_matches_graft_on_unlabelled():
    trees = [t for m in range(1, 5) for t in enumerate_trees(m)]
    for t1, t2 in itertools.product(trees, repeat=2):
        assert labelled_circ(t1, t2) == graft_product(t1, t2)


def _random_labelled(rng, max_size):
    labels = "abc"
    size = rng.randint(1, max_size)

    def build(budget):
        label = rng.choice(labels)
        kids = []
        budget -= 1
        while budget > 0 and rng.random() < 0.6:
            take = rng.randint(1, budget)
            kids.append(build(take))
            budget -= take
        return RootedTree(label, kids)

    return build(size)


def test_derivation_identity_on_labelled_triples():
    # (x*y) o z == (x o z)*y + x*(y o z)
    rng = random.Random(0xC0FFEE)
    for _ in range(80):
        x = _random_labelled(rng, 4)
        y = _random_labelled(rng, 4)
        z = _random_labelled(rng, 4)
        lhs = labelled_circ(labelled_bullet(x, y), z)
        rhs = TreeSum(
            {labelled_bullet(t, y): c for t, c in labelled_circ(x, z).terms.items()}
        )
        rhs = rhs + TreeSum(
            {labelled_bullet(x, s): c for s, c in labelled_circ(y, z).terms.items()}
        )
        assert lhs == rhs


def test_circ_right_symmetry_labelled():
    rng = random.Random(7)

    def circ_sum(a: TreeSum, b: TreeSum) -> TreeSum:
        out = TreeSum()
        for t1, c1 in a.terms.items():
            for t2, c2 in b.terms.items():
                out = out + labelled_circ(t1, t2).scale(c1 * c2)
        return out

    for _ in range(40):
        x, y, z = (_random_labelled(rng, 4) for _ in range(3))
        xs, ys, zs = TreeSum.of(x), TreeSum.of(y), TreeSum.of(z)
        a1 = circ_sum(circ_sum(xs, ys), zs) - circ_sum(xs, circ_sum(ys, zs))
        a2 = circ_sum(circ_sum(xs, zs), ys) - circ_sum(xs, circ_sum(zs, ys))
        assert a1 == a2
