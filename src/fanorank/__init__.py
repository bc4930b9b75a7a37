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
from .lattice import is_primitive, is_unimodular_basis
from .mori import (
    MinimalComponent,
    PrimitiveRelation,
    count_pc_extensions,
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
    "ValidationReport",
    "analyze",
    "batch_json",
    "batch_to_dict",
    "cfh_rank_bound",
    "check_casagrande",
    "check_cfh",
    "check_strong",
    "check_weak",
    "construct",
    "count_pc_extensions",
    "enumerate_2d",
    "free_sum",
    "hexagon",
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
    "report_json",
    "report_to_dict",
    "simplex",
    "validate_smooth_fano",
    "verify_reid_cones",
]
