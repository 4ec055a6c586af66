import pytest

from lsakit.algebra import Algebra, LieAlgebra, basis_vec
from lsakit.linalg import Matrix, Subspace
from lsakit.radicals import is_complete, is_ideal
from lsakit.scalars import QQ
from lsakit.simplicity import (
    CatalogError,
    Verdict,
    a_one,
    a_two,
    catalog,
    catalog_lookup,
    catalog_lsas,
    heisenberg,
    incomplete_simple,
    is_simple,
    strict_upper,
    structural_fingerprint,
)
from lsakit.radicals import ideal_generated
from oracles import multiplication_algebra


def test_ideal_generated_family_reaches_everything():
    A = incomplete_simple(4)
    for j in range(2, 5):
        assert ideal_generated(A, basis_vec(4, j), "two_sided") == Subspace.full(4)


def test_multiplication_algebra_zero_product():
    Z = Algebra("zero2", 2, {})
    basis = multiplication_algebra(Z)
    assert len(basis) == 1  # identity only


def test_multiplication_algebra_dim2_simple_is_full(dim2_simple):
    basis = multiplication_algebra(dim2_simple)
    assert len(basis) == 4  # all of End(K^2)


def test_multiplication_algebra_commutative_diagonal():
    # e_i orthogonal idempotents: multiplication algebra is the diagonal
    D = Algebra("diag3", 3, {(i, i): {i: 1} for i in (1, 2, 3)})
    assert len(multiplication_algebra(D)) == 3


def test_simple_verdicts_on_catalog_simples(dim2_simple):
    for A in (
        dim2_simple,
        a_one(QQ(1, 2)),
        a_one(-1),
        a_one(1),
        a_two(),
        incomplete_simple(3),
        incomplete_simple(4),
        incomplete_simple(5),
    ):
        verdict = is_simple(A)
        assert verdict.verdict is Verdict.SIMPLE, A.name
        assert verdict.certificate is not None


def test_dim4_complete_simple_is_simple():
    A = catalog_lookup("dim4-complete-simple")
    verdict = is_simple(A)
    assert verdict.verdict is Verdict.SIMPLE


def test_not_simple_with_witness(rad_not_right_ideal, lsa_rsa_2dim):
    for A in (rad_not_right_ideal, lsa_rsa_2dim, strict_upper(3)):
        verdict = is_simple(A)
        assert verdict.verdict is Verdict.NOT_SIMPLE
        assert verdict.witness is not None
        assert 0 < verdict.witness.dim < A.dim
        assert is_ideal(A, verdict.witness, "two_sided")


def test_trivial_product_not_simple():
    Z = Algebra("zero3", 3, {})
    verdict = is_simple(Z)
    assert verdict.verdict is Verdict.NOT_SIMPLE
    assert verdict.witness.dim == 1


def test_trivial_product_dim1_has_no_witness():
    Z = Algebra("zero1", 1, {})
    verdict = is_simple(Z)
    assert verdict.verdict is Verdict.NOT_SIMPLE
    assert verdict.witness is None


def test_no_inconclusive_on_catalog():
    for name, A in catalog_lsas().items():
        assert is_simple(A).verdict is not Verdict.INCONCLUSIVE, name


def test_simple_implies_not_nilpotent_lie():
    for name, A in catalog_lsas().items():
        verdict = is_simple(A)
        if verdict.verdict is Verdict.SIMPLE:
            assert not A.commutator_lie().properties().nilpotent, name


def test_simple_implies_left_representation_faithful():
    for name, A in catalog_lsas().items():
        if is_simple(A).verdict is Verdict.SIMPLE:
            n = A.dim
            rows = []
            for j in range(n):
                # x -> L(x) e_{j+1} linear in x; stack all images
                cols = [
                    A.multiply(basis_vec(n, i), basis_vec(n, j + 1))
                    for i in range(1, n + 1)
                ]
                rows.extend(Matrix.from_columns(cols).data)
            assert Matrix(rows, cols=n).kernel().dim == 0, name


def test_abelian_lie_iff_commutative_associative():
    comm_assoc = Algebra("diag2", 2, {(1, 1): {1: 1}, (2, 2): {2: 1}})
    assert comm_assoc.commutator_lie().properties().abelian
    assert comm_assoc.is_commutative() and comm_assoc.is_associative()
    for name, A in catalog_lsas().items():
        abelian = A.commutator_lie().properties().abelian
        assert abelian == (A.is_commutative() and A.is_associative()), name


def test_catalog_contents_and_lookup():
    entries = catalog()
    a2 = entries["A_2"]
    assert a2.prod_basis(1, 1) == {1: QQ(3, 2)}
    assert a2.prod_basis(3, 3) == {2: QQ(-1)}
    d4 = entries["dim4-complete-simple"]
    assert d4.prod_basis(4, 3) == {3: QQ(2)}
    assert d4.prod_basis(4, 2) == {2: QQ(-1)}
    with pytest.raises(CatalogError):
        catalog_lookup("nonexistent")


def test_catalog_matches_constructors():
    entries = catalog()
    assert entries["A_1(1/2)"] == a_one(QQ(1, 2))
    assert entries["A_1(-1)"] == a_one(-1)
    assert entries["A_1(1)"] == a_one(1)
    assert entries["A_2"] == a_two()
    for n in (3, 4, 5):
        assert entries[f"incomplete-simple({n})"] == incomplete_simple(n)
    assert entries["strict-upper(3)"] == strict_upper(3)
    h1 = entries["heisenberg(1)"]
    assert isinstance(h1, LieAlgebra)
    assert h1.brackets == heisenberg(1).brackets


def test_catalog_lsas_are_left_symmetric():
    for name, A in catalog_lsas().items():
        assert A.is_left_symmetric(), name


def test_a_one_completeness_split():
    for lam in (-1, QQ(-1, 2), QQ(1, 2), 1, 2):
        assert is_complete(a_one(lam)).complete == (lam == -1)


def test_a_one_rejects_zero_parameter():
    with pytest.raises(ValueError):
        a_one(0)


def test_fingerprint_distinguishes_completeness():
    f1 = structural_fingerprint(a_one(-1), h_max=2)
    f2 = structural_fingerprint(a_one(QQ(1, 2)), h_max=2)
    assert f1.complete and not f2.complete
    assert f1.as_tuple() != f2.as_tuple()


def test_fingerprint_invariant_under_basis_permutation(dim2_simple):
    A = dim2_simple
    # swap e1 <-> e2
    perm = {1: 2, 2: 1}
    table = {}
    for (i, j), entry in A.table.items():
        table[(perm[i], perm[j])] = {perm[k]: c for k, c in entry.items()}
    B = Algebra("permuted", 2, table)
    fa = structural_fingerprint(A, h_max=2)
    fb = structural_fingerprint(B, h_max=2)
    assert fa.as_tuple() == fb.as_tuple()


def test_fingerprint_dim2_simple_fields(dim2_simple):
    f = structural_fingerprint(dim2_simple, h_max=2)
    assert f.simplicity == "Simple"
    assert not f.complete
    assert f.dim == 2


def test_simple_associative_matrix_algebra():
    # simple associative algebras are simple as LSAs
    import itertools

    def idx(p, q):
        return (p - 1) * 2 + q

    table = {}
    for p, q, r, s in itertools.product((1, 2), repeat=4):
        if q == r:
            table[(idx(p, q), idx(r, s))] = {idx(p, s): 1}
    M2 = Algebra("mat2", 4, table)
    assert M2.is_associative()
    verdict = is_simple(M2)
    assert verdict.verdict is Verdict.SIMPLE
    assert verdict.certificate is not None


def test_direct_sum_is_not_simple(dim2_simple):
    table = {
        (1, 1): {1: 2},
        (1, 2): {2: 1},
        (2, 2): {1: 1},
        (3, 3): {3: 2},
        (3, 4): {4: 1},
        (4, 4): {3: 1},
    }
    S = Algebra("s2+s2", 4, table)
    verdict = is_simple(S)
    assert verdict.verdict is Verdict.NOT_SIMPLE
    assert verdict.witness.dim == 2


def test_notsimple_witness_is_verified_under_python_O():
    """The witness check is not an assert: with asserts stripped, a witness
    that fails the ideal test still raises InternalInconsistencyError."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import lsakit

    script = (
        "import sys\n"
        "from lsakit import simplicity\n"
        "from lsakit.radicals import InternalInconsistencyError\n"
        "simplicity.is_ideal = lambda *args, **kwargs: False\n"
        "try:\n"
        "    simplicity.is_simple(simplicity.strict_upper(3))\n"
        "except InternalInconsistencyError:\n"
        "    print('raised', sys.flags.optimize)\n"
        "else:\n"
        "    print('accepted', sys.flags.optimize)\n"
    )
    src = str(Path(lsakit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "1"]
