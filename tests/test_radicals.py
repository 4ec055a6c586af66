import random

import pytest

from lsakit.algebra import Algebra, basis_vec
from lsakit.linalg import Subspace
from lsakit.radicals import (
    Certificate,
    InternalInconsistencyError,
    NotLeftSymmetricError,
    clan_check,
    helmstetter_extension,
    ideal_generated,
    is_complete,
    is_ideal,
    is_left_nilpotent_ideal,
    is_solvable_ideal,
    koszul_radical,
    largest_left_ideal_in,
    largest_two_sided_ideal_in,
    nil_radical,
    nil_set_probe,
    radical_tower,
    solvable_radical,
    trace_form_radical,
    trace_subspace,
)
from lsakit.scalars import QQ
from lsakit.simplicity import catalog_lsas
from oracles import multiplication_algebra

CATALOG_LSAS = sorted(catalog_lsas().items())


def span(n, *indices):
    return Subspace.from_vectors(n, [basis_vec(n, i) for i in indices])


def a_one(lam):
    lam = QQ(lam)
    return Algebra(
        f"A_1({lam})",
        3,
        {
            (1, 1): {1: lam + 1},
            (1, 2): {2: 1},
            (1, 3): {3: lam},
            (2, 3): {1: 1},
            (3, 2): {1: 1},
        },
    )


def strict_upper_3():
    # e1 = E12, e2 = E13, e3 = E23 in strictly upper triangular 3x3
    return Algebra("strict-upper(3)", 3, {(1, 3): {2: 1}})


def nilpotent2():
    # x.x = x^2 inside t K[t]/(t^3): complete, nonzero product
    return Algebra("nilpotent2", 2, {(1, 1): {2: 1}})


def test_trace_subspace_notideal(rad_not_right_ideal):
    assert trace_subspace(rad_not_right_ideal) == span(4, 1, 3, 4)


def test_trace_subspace_complete_is_everything():
    assert trace_subspace(strict_upper_3()) == Subspace.full(3)


def test_trace_subspace_dim2_simple(dim2_simple):
    assert trace_subspace(dim2_simple) == span(2, 2)


def test_is_complete_a_one_family():
    for lam, expected in [(-1, True), (QQ(-1, 2), False), (QQ(1, 2), False), (1, False), (2, False)]:
        report = is_complete(a_one(lam))
        assert report.complete is expected


def test_is_complete_rejects_non_lsa(rad_not_right_ideal):
    bad = rad_not_right_ideal.opposite()
    with pytest.raises(NotLeftSymmetricError):
        is_complete(bad)


def test_is_complete_witnesses_agree(dim2_simple):
    report = is_complete(dim2_simple)
    assert not report.complete
    assert not report.right_ops_nilpotent


def test_largest_left_ideal_full_and_zero(rad_not_right_ideal):
    A = rad_not_right_ideal
    assert largest_left_ideal_in(A, Subspace.full(4)) == Subspace.full(4)
    assert largest_left_ideal_in(A, Subspace.zero(4)) == Subspace.zero(4)


def test_largest_left_ideal_in_trace_subspace(rad_not_right_ideal):
    A = rad_not_right_ideal
    assert largest_left_ideal_in(A, trace_subspace(A)) == span(4, 1)


def test_koszul_radical_notideal(rad_not_right_ideal):
    report = koszul_radical(rad_not_right_ideal)
    assert report.subspace == span(4, 1)
    assert not report.is_right_ideal
    assert not report.is_two_sided_ideal


def test_koszul_radical_complete_algebra_is_everything():
    report = koszul_radical(strict_upper_3())
    assert report.subspace == Subspace.full(3)


def test_complete_iff_radical_is_everything():
    for A in (a_one(-1), a_one(QQ(1, 2)), strict_upper_3(), nilpotent2()):
        rep = is_complete(A)
        kos = koszul_radical(A)
        assert rep.complete == (kos.subspace == Subspace.full(A.dim))


def test_koszul_radical_dim2_simple_restricts_complete(dim2_simple):
    # rad is the maximal complete left ideal; here it is zero, vacuously
    # complete as a subalgebra.
    assert koszul_radical(dim2_simple).subspace == Subspace.zero(2)


def test_trace_form_radical_notideal(rad_not_right_ideal):
    assert trace_form_radical(rad_not_right_ideal) == span(4, 1)


def test_trace_form_radical_zero_product():
    Z = Algebra("zero3", 3, {})
    assert trace_form_radical(Z) == Subspace.full(3)


def test_trace_form_radical_dim4_complete_simple():
    A = Algebra(
        "dim4-complete-simple",
        4,
        {
            (1, 2): {4: 1},
            (2, 1): {4: 1},
            (2, 3): {1: 2},
            (3, 2): {1: 1},
            (4, 1): {1: 1},
            (4, 2): {2: -1},
            (4, 3): {3: 2},
        },
    )
    assert trace_form_radical(A) == Subspace.full(4)


def test_solvable_and_left_nilpotent_ideal_trivial_cases(dim2_simple):
    A = dim2_simple
    zero = Subspace.zero(2)
    assert is_solvable_ideal(A, zero)
    assert is_left_nilpotent_ideal(A, zero)


def test_strict_upper_full_ideal_both_chains_die():
    A = strict_upper_3()
    full = Subspace.full(3)
    assert is_solvable_ideal(A, full)
    assert is_left_nilpotent_ideal(A, full)


def test_dim2_simple_full_ideal_not_solvable(dim2_simple):
    full = Subspace.full(2)
    assert not is_solvable_ideal(dim2_simple, full)
    assert not is_left_nilpotent_ideal(dim2_simple, full)


def test_ideal_checks_require_two_sided(rad_not_right_ideal):
    with pytest.raises(ValueError):
        is_solvable_ideal(rad_not_right_ideal, span(4, 1))  # left but not right ideal


def test_solvable_radical_zero_product_is_everything():
    Z = Algebra("zero3", 3, {})
    sol, status = solvable_radical(Z)
    assert sol == Subspace.full(3)
    assert status is Certificate.EXACT


def test_solvable_radical_dim2_simple_is_zero(dim2_simple):
    sol, status = solvable_radical(dim2_simple)
    assert sol == Subspace.zero(2)
    assert status is Certificate.HEURISTIC_LOWER_BOUND


def test_solvable_radical_strict_upper_everything():
    sol, status = solvable_radical(strict_upper_3())
    assert sol == Subspace.full(3)
    assert status is Certificate.EXACT


def test_a_one_minus_one_is_not_solvable_as_algebra():
    # A_{1,-1} is complete with solvable Lie algebra, but A.A = A, so the
    # LSA derived chain never shrinks: the algebra itself is not a solvable
    # ideal and (being simple) its solvable radical vanishes.
    A = a_one(-1)
    assert not is_solvable_ideal(A, Subspace.full(3))
    sol, _ = solvable_radical(A)
    assert sol == Subspace.zero(3)


def test_nil_radical_notideal_zero_exact(rad_not_right_ideal):
    nil, status = nil_radical(rad_not_right_ideal)
    assert nil == Subspace.zero(4)
    assert status is Certificate.EXACT  # squeezed: no 2-sided ideal inside rad


def test_nil_radical_strict_upper_everything():
    nil, status = nil_radical(strict_upper_3())
    assert nil == Subspace.full(3)
    assert status is Certificate.EXACT  # Lie algebra nilpotent: nil = rad


def test_nilpotent_lie_forces_radical_coincidence():
    for A in (strict_upper_3(), nilpotent2()):
        assert A.commutator_lie().properties().nilpotent
        nil, status = nil_radical(A)
        assert status is Certificate.EXACT
        assert nil == koszul_radical(A).subspace
        assert nil == trace_form_radical(A)
        probe = nil_set_probe(A)
        assert probe.claims_exact_set
        assert len(probe.members) > 0
        assert probe.span == nil


def test_nil_set_probe_complete_all_pass():
    A = a_one(-1)
    probe = nil_set_probe(A)
    assert len(probe.members) == 3 + 32  # basis + samples all nilpotent


def test_nil_set_probe_dim2_simple_x_fails(dim2_simple):
    probe = nil_set_probe(dim2_simple)
    e1 = basis_vec(2, 1)
    assert e1 not in probe.members
    # char_poly R(x) = t^2 - 2t
    p = dim2_simple.right_matrix(e1).char_poly()
    assert p.coeffs == (QQ(0), QQ(-2), QQ(1))
    assert not probe.claims_exact_set


def test_ideal_generated_examples(rad_not_right_ideal):
    A = rad_not_right_ideal
    assert ideal_generated(A, basis_vec(4, 1), "left") == span(4, 1)
    two = ideal_generated(A, basis_vec(4, 3), "two_sided")
    assert two == span(4, 2, 3, 4)
    zero = ideal_generated(A, [(QQ(0),) * 4], "two_sided")
    assert zero == Subspace.zero(4)


@pytest.mark.parametrize("name,A", CATALOG_LSAS, ids=[name for name, _ in CATALOG_LSAS])
def test_ideal_generated_matches_multiplication_algebra_orbit(name, A):
    """Oracle: the two-sided ideal generated by e_j is span{M e_j} over the
    multiplication algebra, which is closed under matrix products."""
    n = A.dim
    mult = multiplication_algebra(A)
    for j in range(n):
        orbit = Subspace.from_vectors(n, [[row[j] for row in M.data] for M in mult])
        assert ideal_generated(A, basis_vec(n, j + 1), "two_sided") == orbit


@pytest.mark.parametrize("name,A", CATALOG_LSAS, ids=[name for name, _ in CATALOG_LSAS])
def test_is_ideal_iff_its_own_largest_ideal(name, A):
    n = A.dim
    rng = random.Random(n)
    candidates = [trace_subspace(A), Subspace.zero(n), Subspace.full(n)]
    for j in range(1, n + 1):
        candidates.append(span(n, j))
        candidates += [ideal_generated(A, basis_vec(n, j), side) for side in ("left", "right")]
    candidates += [
        Subspace.from_vectors(n, [[rng.randint(-1, 1) for _ in range(n)] for _ in range(2)])
        for _ in range(4)
    ]
    for I in candidates:
        assert is_ideal(A, I, "left") == (largest_left_ideal_in(A, I) == I)
        assert is_ideal(A, I, "two_sided") == (largest_two_sided_ideal_in(A, I) == I)


def test_bad_side_raises(rad_not_right_ideal):
    A = rad_not_right_ideal
    for bad in ("lr", "l", "both"):
        with pytest.raises(ValueError):
            ideal_generated(A, basis_vec(4, 1), bad)
        with pytest.raises(ValueError):
            is_ideal(A, span(4, 1), bad)


def test_ideal_generated_incomplete_family_is_everything():
    for n in (3, 4, 5):
        table = {(1, 1): {1: 2}}
        for j in range(2, n + 1):
            table[(1, j)] = {j: 1}
            table[(j, j)] = {1: 1}
        A = Algebra(f"fam{n}", n, table)
        for j in range(2, n + 1):
            assert ideal_generated(A, basis_vec(n, j), "two_sided") == Subspace.full(n)


def test_radical_tower_notideal(rad_not_right_ideal):
    report = radical_tower(rad_not_right_ideal)
    assert report.T_A == span(4, 1, 3, 4)
    assert report.koszul.subspace == span(4, 1)
    assert not report.koszul.is_right_ideal
    assert report.trace_form_rad == span(4, 1)
    assert report.nil_rad == Subspace.zero(4)
    assert not report.complete
    assert report.lie.solvable and not report.lie.nilpotent
    assert report.inclusions_hold


def test_radical_tower_zero_algebra():
    Z = Algebra("zero2", 2, {})
    report = radical_tower(Z)
    full = Subspace.full(2)
    assert report.T_A == full
    assert report.koszul.subspace == full
    assert report.trace_form_rad == full
    assert report.sol_rad == full
    assert report.nil_rad == full
    assert report.inclusions_hold


def test_radical_tower_requires_lsa(rad_not_right_ideal):
    with pytest.raises(NotLeftSymmetricError):
        radical_tower(rad_not_right_ideal.opposite())


def test_clan_form_symmetric_everywhere(dim2_simple, rad_not_right_ideal, lsa_rsa_2dim):
    from lsakit.simplicity import catalog_lsas

    algebras = [dim2_simple, rad_not_right_ideal, lsa_rsa_2dim, a_one(-1), a_one(1)]
    algebras.extend(catalog_lsas().values())
    for A in algebras:
        assert clan_check(A).form_symmetric, A.name


def test_clan_dim2_simple_has_no_unit(dim2_simple):
    report = clan_check(dim2_simple)
    assert report.unit is None


def test_clan_one_dim_idempotent():
    A = Algebra("line", 1, {(1, 1): {1: 1}})
    report = clan_check(A)
    assert report.form_symmetric
    assert report.form_positive
    assert report.eigen_real_probe
    assert report.unit == (QQ(1),)


def test_helmstetter_is_left_symmetric(dim2_simple):
    B = helmstetter_extension(dim2_simple)
    assert B.dim == 6
    assert B.is_left_symmetric()


def test_helmstetter_zero_dim1():
    A = Algebra("zero1", 1, {})
    B = helmstetter_extension(A)
    assert B.dim == 2
    # product (f,a)(g,b) = (fg, f(b) + g(a)): E11*E11 = E11, E11*e1 = e1,
    # e1*E11 = e1, e1*e1 = 0
    assert B.prod_basis(1, 1) == {1: QQ(1)}
    assert B.prod_basis(1, 2) == {2: QQ(1)}
    assert B.prod_basis(2, 1) == {2: QQ(1)}
    assert B.prod_basis(2, 2) == {}


def test_helmstetter_incomplete_input_kills_radical(dim2_simple):
    B = helmstetter_extension(dim2_simple)
    assert koszul_radical(B).subspace == Subspace.zero(6)


def test_helmstetter_complete_input_radical_not_right_ideal():
    B = helmstetter_extension(nilpotent2())
    assert B.is_left_symmetric()
    report = koszul_radical(B)
    assert report.subspace.dim > 0
    assert not report.is_right_ideal


def test_largest_two_sided_inside_radical(rad_not_right_ideal):
    A = rad_not_right_ideal
    kos = koszul_radical(A).subspace
    assert largest_two_sided_ideal_in(A, kos) == Subspace.zero(4)


def test_koszul_radical_restricted_is_complete():
    # rad(A) is the maximal complete left ideal: nonzero radicals restrict
    # to complete subalgebras (left ideals are closed under the product).
    from lsakit.simplicity import catalog_lsas

    checked = 0
    for name, A in catalog_lsas().items():
        kos = koszul_radical(A).subspace
        if kos.dim == 0:
            continue
        sub = A.restrict(kos, name=f"{name}|rad")
        assert is_complete(sub).complete, name
        checked += 1
    assert checked > 0


def test_helmstetter_dim12_tower():
    # complete input with nonzero product, one size up: the extension of the
    # strictly upper triangular 3x3 algebra is 12-dimensional, its radical
    # is again not a right ideal, and the inclusion chain holds.
    from lsakit.simplicity import strict_upper

    B = helmstetter_extension(strict_upper(3))
    assert B.dim == 12
    report = radical_tower(B)
    assert report.inclusions_hold
    assert report.koszul.subspace.dim > 0
    assert not report.koszul.is_right_ideal


def test_left_right_symmetry_duality_random_tables():
    import random as _random

    rng = _random.Random(0xBEEF)
    for _ in range(40):
        n = rng.randint(1, 3)
        table = {}
        for _ in range(rng.randint(0, 6)):
            i, j, k = (rng.randint(1, n) for _ in range(3))
            table.setdefault((i, j), {})[k] = rng.randint(-2, 2)
        A = Algebra("rand", n, table)
        assert A.is_left_symmetric() == A.opposite().is_right_symmetric()
