"""Exact-arithmetic analysis of smooth toric Fano polytopes.

The library takes a Fano polytope (the convex hull of the primitive ray
generators of a smooth toric Fano variety), validates the smoothness
conditions, builds the face fan, enumerates primitive collections and
relations, and evaluates the Picard rank bounds attached to minimal
components of rational curves.  All arithmetic is exact.
"""

from .bounds import (
    AnalysisReport,
    BoundCheck,
    analyze,
    cfh_rank_bound,
    check_casagrande,
    check_cfh,
    check_strong,
    check_weak,
)
from .enum2d import enumerate_2d
from .fan import ConeLocation, Fan
from .formats import (
    batch_json,
    batch_to_dict,
    construct,
    parse_path,
    parse_polytopes,
    polytope_to_text,
    report_json,
    report_to_dict,
)
from .lattice import (
    QuotientProjection,
    is_primitive,
    is_unimodular_basis,
    quotient_projection,
)
from .mori import (
    MinimalComponent,
    PrimitiveRelation,
    anticanonical_degree,
    count_pc_extensions,
    curve_class_of,
    is_effective_relation,
    is_extremal_degree_one,
    lift_zero_sum_collections,
    minimal_components,
    picard_rank,
    primitive_collections,
    primitive_relation,
    verify_reid_cones,
)
from .polytope import (
    FanoPolytope,
    ValidationReport,
    free_sum,
    hexagon,
    simplex,
    validate_smooth_fano,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BoundCheck",
    "ConeLocation",
    "Fan",
    "FanoPolytope",
    "MinimalComponent",
    "PrimitiveRelation",
    "QuotientProjection",
    "ValidationReport",
    "analyze",
    "anticanonical_degree",
    "batch_json",
    "batch_to_dict",
    "cfh_rank_bound",
    "check_casagrande",
    "check_cfh",
    "check_strong",
    "check_weak",
    "construct",
    "count_pc_extensions",
    "curve_class_of",
    "enumerate_2d",
    "free_sum",
    "hexagon",
    "is_effective_relation",
    "is_extremal_degree_one",
    "is_primitive",
    "is_unimodular_basis",
    "lift_zero_sum_collections",
    "minimal_components",
    "parse_path",
    "parse_polytopes",
    "picard_rank",
    "polytope_to_text",
    "primitive_collections",
    "primitive_relation",
    "quotient_projection",
    "report_json",
    "report_to_dict",
    "simplex",
    "validate_smooth_fano",
    "verify_reid_cones",
]
