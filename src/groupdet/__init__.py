"""Exact integer group determinants for small finite groups.

Exact factorized determinants (abelian character products, the
order-p^3 Heisenberg factorization, dihedral/dicyclic closed forms),
verifiers for the congruence, attainability and sharp-divisibility
claims they satisfy, bounded value searches, and numeric Mahler-type
measures for the infinite-group limits.
"""

from .errors import (
    BudgetExceeded,
    GroupDetError,
    InexactDivision,
    InvalidParameter,
    NotInteger,
    ParseError,
    PreconditionViolated,
    PrimeMismatch,
    RootFindingFailed,
    ZeroPolynomial,
    ZeroSlice,
)
from .exactdet import det_bareiss, det_int, is_prime
from .cyclotomic import CycInt
from .polyring import IntPoly
from .groups import (
    GroupRingElt,
    GroupSpec,
    PolyInput,
    build_group,
    cayley_matrix,
    group_determinant,
    heisenberg_normal_form,
    poly_from_json,
    poly_to_json,
)
from .measures import (
    HeisenbergFactorization,
    abelian_measure,
    char_product_2d,
    circulant_det,
    dicyclic_measure,
    dihedral_measure,
    heisenberg_binomial_measure,
    heisenberg_fourier_coeffs,
    heisenberg_measure,
    heisenberg_phi_matrix,
    measure_h3,
)
from .verify import (
    CongruenceReport,
    FamilyValue,
    SharpnessReport,
    achieve_construction,
    check_measure_congruence,
    check_power_sum_congruence,
    check_symmetric_power_divisibility,
    h3_family_polys,
    h3_family_values,
    heisenberg_divisibility_check,
    heisenberg_sharp_family,
    is_power_residue,
    p_valuation,
    random_heisenberg_poly,
    random_symmetric_instance,
    s1_classification_check,
    smallest_non_fermat_base,
    zp2_divisibility_check,
    zp2_sharp_family,
)
from .search import (
    SearchConfig,
    SearchResult,
    enumerate_values,
    evaluation_budget,
    lambda_heisenberg,
    min_coprime_residue,
)
from ._roots import polynomial_roots
from .mahler import (
    LaurentPoly,
    LimitMeasure,
    d_infinity_h_fourcomponent,
    d_infinity_h_measure,
    d_infinity_measure,
    heisenberg_infinite_measure,
    mahler_measure,
)
from .parsing import bivariate_yz, parse_poly, poly_vars, univariate

__version__ = "0.1.0"
