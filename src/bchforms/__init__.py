"""Parameters, weight enumerators and minimum distances of q-ary
narrow-sense primitive BCH codes with Bose distance q^m-q^(m-1)-q^i-1,
via quadratic/bilinear form censuses, with built-in exhaustive oracles."""

from .cyclotomic import (
    CodeParams,
    bch_dimension,
    bose_distance,
    code_params,
    coset_leaders_geq,
    cyclotomic_coset,
    q_adic,
    theorem_i_range,
    theorem_sweep,
)
from .errors import BchFormsError
from .forms import (
    RankType,
    TraceQuadraticForm,
    canonical_form,
    classify_quadratic,
    classify_symmetric,
    count_solutions_closed,
    polarize,
)
from .gfarith import FieldContext, SmallField, build_field, field_for, small_field
from .oracle import EnumerationBudget, rank_type_census
from .schemes import (
    FamilySpec,
    InnerDistribution,
    census_inner_distribution,
    dg_bound,
    is_d_code,
    is_proper_d_code,
    qsq_binomial,
    schmidt_inner_distribution,
    t_design_check,
)
from .weights import (
    WeightEnumerator,
    appendix_frequency_tables,
    code_enumerator_odd,
    coset_enumerator_even,
    coset_enumerator_odd,
    intersection_table,
    min_distance_even,
    prm_enumerator,
)

__version__ = "0.1.0"

__all__ = [
    "BchFormsError",
    "CodeParams",
    "EnumerationBudget",
    "FamilySpec",
    "FieldContext",
    "InnerDistribution",
    "RankType",
    "SmallField",
    "TraceQuadraticForm",
    "WeightEnumerator",
    "appendix_frequency_tables",
    "bch_dimension",
    "bose_distance",
    "build_field",
    "canonical_form",
    "census_inner_distribution",
    "classify_quadratic",
    "classify_symmetric",
    "code_enumerator_odd",
    "code_params",
    "coset_enumerator_even",
    "coset_enumerator_odd",
    "coset_leaders_geq",
    "count_solutions_closed",
    "cyclotomic_coset",
    "dg_bound",
    "field_for",
    "intersection_table",
    "is_d_code",
    "is_proper_d_code",
    "min_distance_even",
    "polarize",
    "prm_enumerator",
    "q_adic",
    "qsq_binomial",
    "rank_type_census",
    "schmidt_inner_distribution",
    "small_field",
    "t_design_check",
    "theorem_i_range",
    "theorem_sweep",
]
