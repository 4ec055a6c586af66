"""Exact workbench for left- and right-symmetric (pre-Lie) algebras.

Everything computes over exact rationals: structure-constant algebras and
their defining identities, the radical tower and completeness theory, clan
conditions, simplicity via the multiplication algebra, cochain complexes
with Gerstenhaber products, the free right-symmetric products on rooted
trees and on words over {A,B}, truncated vector-field algebras, and the
faithful-representation bound tables.
"""

from .scalars import QQ, BACKEND, rat_str, parse_rat
from .linalg import Matrix, Subspace, subspace_ops, solve
from .polys import (
    Poly,
    all_roots_real,
    factor_small,
    real_root_count,
    squarefree_decomposition,
)
from .algebra import (
    Algebra,
    JacobiError,
    LieAlgebra,
    LieProperties,
    basis_vec,
    lie_properties,
    vec,
)
from .radicals import (
    Certificate,
    ClanReport,
    CompletenessReport,
    InternalInconsistencyError,
    KoszulReport,
    RadicalReport,
    clan_check,
    helmstetter_extension,
    ideal_generated,
    is_complete,
    is_left_nilpotent_ideal,
    is_solvable_ideal,
    koszul_radical,
    largest_left_ideal_in,
    nil_radical,
    nil_set_probe,
    radical_tower,
    solvable_radical,
    trace_form_radical,
    trace_subspace,
)
from .simplicity import (
    CatalogError,
    SimplicityVerdict,
    Verdict,
    a_one,
    a_two,
    catalog,
    catalog_lookup,
    heisenberg,
    incomplete_simple,
    is_simple,
    strict_upper,
    structural_fingerprint,
)
from .cohomology import (
    Cochain,
    CohomologyDims,
    compose_unsigned,
    derivation_space,
    gerstenhaber_bracket,
    hochschild_compose_signed,
    hochschild_d,
    lsa_coboundary,
    lsa_cohomology,
)
from .trees import (
    RootedTree,
    TreeSum,
    canonicalize,
    enumerate_trees,
    graft_product,
    labelled_bullet,
    labelled_circ,
    parse_tree,
    rooted_tree_count,
)
from .words import WordSum, epsilon, format_word_sum, insert_product, word_associator
from .witt import (
    TruncPoly,
    VecField,
    check_novikov_truncated,
    vec_product,
    witt_associator,
)
from .repdim import (
    Representation,
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
from .serialize import (
    AlgebraDocument,
    DocumentError,
    algebra_to_document,
    document_to_algebra,
    format_document,
    parse_document,
)

__version__ = "0.1.0"
