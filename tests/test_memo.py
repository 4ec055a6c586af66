"""The per-algebra memo: each invariant is computed once per Algebra object,
keyed by the arguments that change it, and algebras are immutable so that a
cached answer cannot go stale."""

import pytest

from lsakit import cohomology
from lsakit.algebra import Algebra, LieAlgebra
from lsakit.cli import _analyze_algebra
from lsakit.cohomology import lsa_cohomology
from lsakit.linalg import Matrix
from lsakit.radicals import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    is_complete,
    koszul_radical,
    solvable_radical,
    trace_subspace,
)
from lsakit.scalars import QQ
from lsakit.simplicity import a_two, heisenberg, is_simple


def _count_calls(monkeypatch, owner, attr):
    """Record the arguments of every call of owner.attr."""
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_analyze_checks_left_symmetry_once(monkeypatch):
    scans = _count_calls(monkeypatch, Algebra, "_assoc_basis")
    assert a_two().left_symmetry_witness() is None
    one_scan = len(scans)
    assert one_scan > 0
    scans.clear()
    _analyze_algebra(a_two(), DEFAULT_SEED, DEFAULT_SAMPLES, 3)
    assert len(scans) == one_scan


def test_integer_tensor_is_built_on_first_use_and_once(monkeypatch):
    builds = _count_calls(monkeypatch, Algebra, "_integer_tensor")
    A = a_two()
    assert A._memo == {} and builds == []
    _analyze_algebra(A, DEFAULT_SEED, DEFAULT_SAMPLES, 3)
    assert sum(args[0] is A for args in builds) == 1


def test_analyze_ranks_each_coboundary_once(monkeypatch):
    ranks = _count_calls(monkeypatch, cohomology, "sparse_rank")
    _analyze_algebra(a_two(), DEFAULT_SEED, DEFAULT_SAMPLES, 3)
    assert len(ranks) == 3


def test_analyze_tests_each_basis_right_operator_for_nilpotency_once(monkeypatch):
    A = a_two()
    tests = _count_calls(monkeypatch, Matrix, "is_nilpotent")
    _analyze_algebra(A, DEFAULT_SEED, DEFAULT_SAMPLES, 3)
    assert [sum(args[0] == R for args in tests) for R in A.right_ops()] == [1] * A.dim


def test_lone_completeness_check_skips_the_nil_probe(monkeypatch):
    lie = _count_calls(monkeypatch, LieAlgebra, "properties")
    tests = _count_calls(monkeypatch, Matrix, "is_nilpotent")
    A = a_two()
    assert not is_complete(A).complete
    assert lie == []
    # only basis operators, until one is not nilpotent
    assert 0 < len(tests) <= A.dim
    assert all(args[0] in A.right_ops() for args in tests)


def test_cohomology_reuses_the_rank_of_the_previous_coboundary(monkeypatch):
    built = _count_calls(monkeypatch, cohomology, "_coboundary_rows")
    A = a_two()
    h1 = lsa_cohomology(A, 1)
    assert [args[1] for args in built] == [1]
    h2 = lsa_cohomology(A, 2)
    assert [args[1] for args in built] == [1, 2]
    assert h2.dim_coboundaries == h1.dim_cochains - h1.dim_cocycles


def test_memo_keys_on_seed_samples_and_defaults():
    A = a_two()
    assert solvable_radical(A) is solvable_radical(A, DEFAULT_SEED, DEFAULT_SAMPLES)
    assert is_complete(A) is is_complete(A, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED)
    assert is_complete(A, 4, 7) is not is_complete(A, 32, 7)
    assert is_simple(A, seed=7) is not is_simple(A)
    # A_2 is incomplete, and a probe family of 4 samples from seed 7 finds no
    # singular Id + R(x) where the default family does.
    assert is_complete(A, 4, 7).id_plus_right_invertible
    assert not is_complete(A).id_plus_right_invertible


def test_equal_algebras_share_nothing():
    A = a_two()
    B = Algebra(A.name, A.dim, A.table)
    assert A == B
    assert A.table is not B.table
    assert all(A.table[ij] is not B.table[ij] for ij in A.table)
    kos_a = koszul_radical(A)
    assert B._memo == {}
    kos_b = koszul_radical(B)
    assert kos_a == kos_b and kos_a is not kos_b
    assert trace_subspace(A) is not trace_subspace(B)
    assert A.right_ops() is not B.right_ops()
    assert A._memo is not B._memo


def test_table_is_read_only():
    A = a_two()
    with pytest.raises(TypeError):
        A.table[(1, 1)] = {1: QQ(2)}
    with pytest.raises(TypeError):
        A.table[(1, 1)][1] = QQ(2)
    with pytest.raises(TypeError):
        del A.table[(1, 1)]
    with pytest.raises(AttributeError):
        A.table = {}
    with pytest.raises(AttributeError):
        A.dim = 4
    assert A == a_two()


def test_algebra_does_not_keep_the_callers_table():
    entries = {(1, 1): {1: QQ(1)}}
    A = Algebra("e", 1, entries)
    entries[(1, 1)][1] = QQ(5)
    entries[(1, 1)] = {1: QQ(7)}
    assert dict(A.table[(1, 1)]) == {1: QQ(1)}


def test_lie_algebra_is_immutable_and_memoized():
    g = heisenberg(1)
    with pytest.raises(TypeError):
        g.brackets[(1, 2)] = (QQ(0),) * 3
    with pytest.raises(AttributeError):
        g.dim = 5
    assert g.properties() is g.properties()
    assert g.properties().nilpotent
    A = a_two()
    assert A.commutator_lie() is A.commutator_lie()
    assert A.commutator_lie().properties() is A.commutator_lie().properties()
