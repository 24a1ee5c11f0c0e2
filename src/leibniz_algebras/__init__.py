"""Exact computations with finite-dimensional Leibniz algebras given by
structure constants: invariants, exhaustive finite-field search oracles,
parametric family constructors, and the codimension-two classification.
"""

from ._kernel import backend
from .algebra import (
    AlgebraTable,
    bracket,
    center,
    centralizer,
    change_of_basis,
    direct_sum,
    generated_subalgebra,
    is_abelian_subspace,
    is_ideal,
    is_leibniz,
    is_lie,
    is_subalgebra,
    left_annihilator,
    leibniz_failure,
    mult_operator,
    normalizer,
    product_space,
    quotient,
    squares_ideal,
    subalgebra_table,
)
from .classify import (
    Case,
    ClassificationVerdict,
    TheoremReport,
    classify,
    solvability_from_codim2_ideal,
    verify_main_theorem,
)
from .errors import (
    AlgebraError,
    BudgetExceededError,
    ConsistencyError,
    DimensionMismatchError,
    DocumentError,
    FamilyParameterError,
    FieldMismatchError,
    NotLeibnizError,
)
from .families import (
    abelian_algebra,
    heisenberg,
    heisenberg_plus_abelian,
    make_a,
    make_b,
    make_c,
    make_d,
    make_e,
    oscillator,
    raw_pair_table,
    span_equivalent_iso,
)
from .fields import GF, QQ, FieldSpec
from .invariants import (
    FittingSplit,
    SeriesReport,
    check_annihilator_bound,
    fitting_decomposition,
    nilradical,
    series,
    verify_nilradical_candidate,
)
from .linalg import (
    Matrix,
    QuadraticPoly,
    Subspace,
    char_poly_2x2,
    enumerate_subspaces,
    gaussian_binomial,
    is_irreducible_quadratic,
    rref,
    subspace_intersect,
    subspace_sum,
)
from .search import (
    IsoResult,
    SearchResult,
    all_abelian_ideals,
    all_abelian_subalgebras,
    alpha,
    alpha_beta,
    beta,
    invariant_profile,
    is_maximal_subalgebra,
    iso_search,
)
from .serialize import parse_algebra, serialize_algebra

__version__ = "0.1.0"
