"""rankdec: exact computations with rank-metric codes that decompose as
direct sums of one-dimensional maximum-rank-distance blocks.

The package provides a finite-field tower (:mod:`rankdec.fields`), a
subspace calculus with trace duality and subspace products
(:mod:`rankdec.subspaces`), rank-metric codes with exact weight
enumeration (:mod:`rankdec.codes`, :mod:`rankdec.enumeration`), the
geometric side as systems in F_{q^m}^k with their trace duality
(:mod:`rankdec.systems`),
closed-form minimum-weight counts with bounds and extremal
constructions (:mod:`rankdec.analysis`), verification suites
(:mod:`rankdec.suites`) and a CLI (:mod:`rankdec.cli`).
"""

from .analysis import (
    MinWeightReport,
    Verdict,
    bound_prime,
    bounds_nonprime,
    check_char_nonprime,
    check_char_prime,
    construct_lambda_code,
    construct_lower_attaining,
    construct_subfield_extremal,
    min_weight_count_formula,
    minimum_weight_family,
    trailing_run_length,
)
from .codes import (
    Decomposition,
    EquivalenceMap,
    MinimalFamilies,
    RankCode,
    WeightDistribution,
    apply_equivalence,
    build_completely_decomposable,
    code_from_spec,
    code_support,
    detect_complete_decomposability,
    dual_code,
    geometric_dual,
    is_mrd,
    is_nondegenerate,
    min_distance,
    minimal_codeword_census,
    minimal_codewords,
    random_gl,
    rank_weight,
    support,
    weight_distribution,
)
from .errors import (
    CapExceededError,
    ContextMismatchError,
    FalsificationAlarm,
    NotApplicableError,
    RankdecError,
)
from .fields import FieldContext, gaussian_binomial, is_prime
from .subspaces import (
    Subspace,
    geometric_subspace,
    geometric_witnesses,
    intersect,
    is_subfield_linear,
    kernel_of_trace,
    product,
    scale,
    span,
    subspace_sum,
    trace_dual,
    verify_dual_geometric,
    verify_dual_subfield,
)
from .systems import System, perp_prime, system_from_code

__all__ = [
    # fields
    "FieldContext", "gaussian_binomial", "is_prime",
    # subspaces
    "Subspace", "span", "subspace_sum", "intersect", "product", "scale",
    "trace_dual", "kernel_of_trace", "geometric_subspace",
    "verify_dual_geometric", "verify_dual_subfield",
    "geometric_witnesses", "is_subfield_linear",
    # codes
    "RankCode", "Decomposition", "EquivalenceMap", "WeightDistribution",
    "MinimalFamilies", "rank_weight", "support", "code_support",
    "is_nondegenerate", "weight_distribution", "min_distance", "is_mrd",
    "apply_equivalence", "random_gl", "build_completely_decomposable",
    "detect_complete_decomposability", "minimal_codewords",
    "minimal_codeword_census", "dual_code", "geometric_dual",
    "code_from_spec",
    # systems
    "System", "system_from_code", "perp_prime",
    # analysis
    "MinWeightReport", "Verdict", "trailing_run_length",
    "min_weight_count_formula", "minimum_weight_family",
    "bounds_nonprime", "bound_prime", "construct_subfield_extremal",
    "construct_lambda_code", "construct_lower_attaining",
    "check_char_nonprime", "check_char_prime",
    # errors
    "RankdecError", "ContextMismatchError", "CapExceededError",
    "NotApplicableError", "FalsificationAlarm",
]

__version__ = "0.1.0"
