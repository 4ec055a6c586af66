import pytest

from lsakit.algebra import Algebra, LieAlgebra, basis_vec
from lsakit.intervals import (
    Interval,
    certify_less,
    exp_interval,
    pi_interval,
    sqrt_interval,
)
from lsakit.linalg import Matrix, Subspace
from lsakit.repdim import (
    CLOSED_FORMS,
    CocycleError,
    MuBounds,
    Representation,
    RepresentationError,
    adjoint_rep,
    affine_embedding,
    asymptotic_bounds_check,
    b_nk,
    cocycle_space,
    faithful_extension,
    left_regular_rep,
    lsa_from_cocycle,
    mu_bound_report,
    mu_formulas,
    mu_table,
    p_nk,
    partition_numbers,
    unimodality_check,
)
from lsakit.scalars import QQ
from lsakit.simplicity import a_one, catalog_lsas, heisenberg
from oracles import partition_count_enumerated


# -- interval plumbing -------------------------------------------------------


def test_pi_interval_brackets():
    iv = pi_interval(128)
    assert QQ(3141592653589793, 10**15) < iv.lo
    assert iv.hi < QQ(3141592653589794, 10**15)
    assert iv.hi - iv.lo < QQ(1, 1 << 100)


def test_sqrt_interval():
    iv = sqrt_interval(QQ(2), 128)
    assert iv.lo * iv.lo < 2 < iv.hi * iv.hi
    assert iv.hi - iv.lo <= QQ(2, 1 << 128)


def test_exp_interval_at_one():
    iv = exp_interval(Interval(QQ(1), QQ(1)), 96)
    # e = 2.718281828459045...
    assert iv.lo < QQ(2718281828459046, 10**15) and iv.hi > QQ(2718281828459045, 10**15)


def test_certify_less_escalates():
    assert certify_less(3, lambda bits: pi_interval(bits))
    assert not certify_less(4, lambda bits: pi_interval(bits))


# -- representations and cocycles -------------------------------------------


def test_representation_verifies_bracket_compat():
    g = heisenberg(1)
    rep = adjoint_rep(g)
    assert rep.degree == 3
    # center acts trivially in the adjoint representation
    assert rep.kernel() == Subspace.from_vectors(3, [basis_vec(3, 3)])


def test_representation_rejects_bad_images():
    g = heisenberg(1)
    images = [Matrix.identity(3)] * 3  # commuting images cannot satisfy [x,y]=z
    with pytest.raises(RepresentationError):
        Representation(g, images)


def test_cocycle_space_adjoint_is_derivations():
    # Z1(g, adjoint) = Der(g): every cocycle basis vector, reshaped to a
    # matrix, satisfies the Leibniz rule for the bracket, and the dimension
    # matches the independent derivation solver on the bracket product.
    from lsakit.cohomology import derivation_space

    for g in (a_one(QQ(1, 2)).commutator_lie(), heisenberg(1)):
        rep = adjoint_rep(g)
        z1, b1 = cocycle_space(rep)
        n = g.dim
        assert z1.dim == derivation_space(g.as_algebra()).dim
        assert z1.contains(b1)
        for flat in z1.basis_vectors():
            # column-major: omega(e_j) = flat[j*n : (j+1)*n]
            D = Matrix.from_columns([flat[j * n : (j + 1) * n] for j in range(n)])
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    lhs = D.matvec(g.bracket_basis(i, j))
                    rhs = tuple(
                        a + b
                        for a, b in zip(
                            g.bracket(D.matvec(basis_vec(n, i)), basis_vec(n, j)),
                            g.bracket(basis_vec(n, i), D.matvec(basis_vec(n, j))),
                        )
                    )
                    assert lhs == rhs


def test_cocycle_space_abelian_trivial_action():
    # abelian algebra, trivial action: every linear map is a cocycle and
    # nothing is a coboundary
    g = LieAlgebra("ab2", 2, {})
    rep = Representation(g, [Matrix.zeros(2, 2), Matrix.zeros(2, 2)])
    z1, b1 = cocycle_space(rep)
    assert z1 == Subspace.full(4)
    assert b1 == Subspace.zero(4)


def test_lsa_identity_cocycle_membership():
    # For an LSA, the identity map is a 1-cocycle of theta = L.
    A = a_one(QQ(1, 2))
    rep = left_regular_rep(A)
    z1, _ = cocycle_space(rep)
    ident = [QQ(1) if r == c else QQ(0) for c in range(3) for r in range(3)]
    assert z1.contains_vector(ident)


def test_lsa_from_cocycle_identity_recovers_input():
    A = a_one(QQ(1, 2))
    rep = left_regular_rep(A)
    B = lsa_from_cocycle(rep, Matrix.identity(3))
    assert B.table == A.table


def test_lsa_from_cocycle_grading_derivation():
    # positively graded Lie algebra -> nonsingular derivation D(x_i) = i x_i
    # -> left-symmetric structure via theta = ad, phi = D
    g = heisenberg(1)  # grading: x, y in degree 1, z in degree 2
    rep = adjoint_rep(g)
    D = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    A = lsa_from_cocycle(rep, D, name="h1-affine")
    assert A.is_left_symmetric()
    assert A.commutator_brackets() == g.brackets


def test_lsa_from_cocycle_rejects_singular():
    A = a_one(1)
    rep = left_regular_rep(A)
    with pytest.raises(CocycleError):
        lsa_from_cocycle(rep, Matrix.zeros(3, 3))


def test_lsa_from_cocycle_rejects_non_cocycle():
    g = heisenberg(1)
    rep = adjoint_rep(g)
    # a generic nonsingular map that is not a derivation
    M = Matrix([[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    with pytest.raises(CocycleError):
        lsa_from_cocycle(rep, M)


def test_faithful_extension_zero_cocycle_keeps_kernel():
    g = heisenberg(1)
    rep = adjoint_rep(g)
    ext = faithful_extension(rep, Matrix.zeros(3, 3))
    assert ext.degree == 4
    assert ext.kernel() == rep.kernel()


def test_faithful_extension_identity_on_catalog_lsas():
    for name, A in catalog_lsas().items():
        rep = left_regular_rep(A)
        ext = faithful_extension(rep, Matrix.identity(A.dim))
        assert ext.degree == A.dim + 1
        assert ext.is_faithful(), name


def test_faithful_extension_heisenberg_chain():
    g = heisenberg(1)
    rep = adjoint_rep(g)
    D = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    A = lsa_from_cocycle(rep, D)
    ext = faithful_extension(left_regular_rep(A), Matrix.identity(3))
    assert ext.degree == 4 and ext.is_faithful()
    # mu(h_1) = 3 is smaller than this generic degree-4 construction
    assert mu_formulas("heisenberg", 1).value == 3


def test_affine_embedding_zero_product():
    Z = Algebra("zero3", 3, {})
    rep = affine_embedding(Z)
    assert rep.degree == 4
    assert rep.is_faithful()
    for M in rep.images:
        assert (M * M).is_zero() or not (M * M).is_zero()  # shape sanity
        assert all(M.data[3][c] == 0 for c in range(4))


def test_affine_embedding_notideal_faithful(rad_not_right_ideal):
    rep = affine_embedding(rad_not_right_ideal)
    assert rep.degree == 5
    assert rep.kernel().dim == 0


def test_affine_embedding_rejects_corrupted_table(rad_not_right_ideal):
    bad = dict(rad_not_right_ideal.table)
    bad[(3, 3)] = {4: QQ(1)}  # breaks left-symmetry
    B = Algebra("corrupted", 4, bad)
    assert not B.is_left_symmetric()
    with pytest.raises((RepresentationError, Exception)) as info:
        affine_embedding(B)
    assert hasattr(info.value, "pair") or hasattr(info.value, "triple")


# -- partition tables ---------------------------------------------------------


def test_partition_numbers_small():
    assert partition_numbers(6) == [1, 1, 2, 3, 5, 7, 11]


def test_partition_numbers_against_enumeration():
    ps = partition_numbers(20)
    for j in range(21):
        assert ps[j] == partition_count_enumerated(j)


def test_partition_bound():
    with pytest.raises(ValueError):
        partition_numbers(201)


def test_p_nk_paper_values():
    assert p_nk(6, 5) == 45
    assert b_nk(6, 5) == 462
    assert 6**5 + 1 == 7777
    assert p_nk(5, 2) == 16
    assert p_nk(2, 2) == 4


def test_p_nk_first_column():
    for n in range(1, 50):
        assert p_nk(n, 1) == n + 1


def test_closed_forms_match_sum():
    for n in range(5, 121):
        for k, form in CLOSED_FORMS.items():
            assert p_nk(n, k) == form(n), (n, k)


def test_recursion_full_range():
    for n in range(1, 121):
        for k in range(1, n + 1):
            left = p_nk(n + 1, k)
            right = p_nk(n, k) + (p_nk(n, k - 1) if k >= 1 else 0)
            assert left == right, (n, k)


def test_binomial_chain_increases():
    for n in range(2, 60):
        for k in range(1, n):
            assert b_nk(n, k) < b_nk(n, k + 1)


def test_mu_bound_report():
    rep = mu_bound_report(6, 5)
    assert (rep.reed, rep.binomial, rep.partition) == (7777, 462, 45)
    degenerate = mu_bound_report(9, 1)
    assert degenerate.reed == degenerate.binomial == degenerate.partition == 10


def test_mu_table_rows():
    t = mu_table(6)
    assert t.rows[4] == (5, p_nk(6, 5), 462, 7777)


def test_unimodality_small_and_peak():
    rep = unimodality_check(4)
    assert rep.peak == 3 and rep.monotone_up and rep.monotone_down
    for n in (5, 10, 25, 60):
        rep = unimodality_check(n)
        assert rep.peak == (n + 3) // 2
        assert rep.monotone_up and rep.monotone_down, n


def test_unimodality_rejects_small_n():
    with pytest.raises(ValueError):
        unimodality_check(3)


def test_asymptotic_bounds_small_range():
    rep = asymptotic_bounds_check(1, 12)
    assert rep.uniform_two_power
    assert rep.diagonal_exp
    assert rep.near_diagonal_exp
    assert rep.partial_product


def test_mu_formulas_abelian():
    res = mu_formulas("abelian", 5)
    assert res.value == 4
    assert len(res.witness) == 4 * 4 // 4 + 1  # = 5 >= n
    res2 = mu_formulas("abelian", 2)
    assert res2.value == 2
    res1 = mu_formulas("abelian", 1)
    assert res1.value == 1


def test_mu_formulas_heisenberg_and_center():
    assert mu_formulas("heisenberg", 1).value == 3
    assert mu_formulas("heisenberg", 3).value == 5
    assert mu_formulas("two_step_center1", 5).value == 4
    with pytest.raises(ValueError):
        mu_formulas("two_step_center1", 4)


def test_mu_formulas_schur_jacobson():
    res = mu_formulas("schur_jacobson", 4)
    assert res.value == 5
    assert len(res.witness) == 5


def test_mu_formulas_bad_kind():
    with pytest.raises(ValueError):
        mu_formulas("unknown", 3)
