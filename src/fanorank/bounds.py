"""Picard rank bounds evaluated per polytope and per minimal component.

Four named checks are reported:

* ``casagrande``: rho <= 2 * dim, a theorem for every smooth toric Fano,
  so a failure means an implementation bug rather than a finding.
* ``cfh``: the Chen-Fu-Hwang inequality rho * (k - 1) <= n(n+1)/2 for a
  minimal component of degree k, stored in the equivalent rank-bound
  form rho <= floor(n(n+1) / (2(k-1))); at codegree 2 this floor is the
  published specialization (5 for n = 4..7, 6 for n = 3 and 8..10).
* ``strong``: rho <= 2 * codegree + 2.
* ``weak``: fixed caps by codegree, 1, 3 and 5 for codegrees 0, 1 and 2
  (the codegree 2 cap is a theorem); higher codegrees get an
  informational entry with no numeric bound.

Every check records the literal truth of its inequality.  The surface
case dim = 2 sits outside the range the classification arguments for
``cfh`` and the codegree 1 cap are asserted in (the hexagon violates
both literally), so those entries carry ``in_asserted_range = False``
there and downstream tooling treats them as informational.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fan import Fan
from .lattice import InternalInconsistencyError, Vector
from .mori import (
    MinimalComponent,
    PrimitiveRelation,
    minimal_components,
    picard_rank,
    primitive_collections,
    primitive_relation,
)
from .polytope import Factor, FanoPolytope, ValidationReport, validate_smooth_fano

WEAK_CAPS = {0: 1, 1: 3, 2: 5}


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality: satisfied iff rho <= bound.

    ``bound`` is None for informational entries (weak check at codegree
    3 and up), in which case ``satisfied`` is None as well.
    """

    name: str
    component: MinimalComponent | None
    bound: int | None
    rho: int
    satisfied: bool | None
    in_asserted_range: bool = True

    def __post_init__(self) -> None:
        expected = None if self.bound is None else self.rho <= self.bound
        if self.satisfied != expected:
            raise InternalInconsistencyError(f"inconsistent bound check {self}")

    @property
    def is_theorem_violation(self) -> bool:
        """Failures that can only mean a bug: Casagrande and the codegree 2 cap."""
        if self.satisfied is not False:
            return False
        if self.name == "casagrande":
            return True
        return self.name == "weak" and self.component is not None and self.component.codegree == 2

    @property
    def is_conjecture_violation(self) -> bool:
        """Literal failures of the conjectural checks inside their asserted range."""
        if self.satisfied is not False or not self.in_asserted_range:
            return False
        if self.name == "cfh" or self.name == "strong":
            return True
        return self.name == "weak" and self.component is not None and self.component.codegree < 2


@dataclass(frozen=True)
class AnalysisReport:
    """Everything computed for one polytope, in deterministic order."""

    name: str
    dim: int
    vertex_count: int
    picard_rank: int
    valid: bool
    validation: ValidationReport
    relations: tuple[PrimitiveRelation, ...]
    components: tuple[MinimalComponent, ...]
    checks: tuple[BoundCheck, ...]

    def __post_init__(self) -> None:
        if self.picard_rank != self.vertex_count - self.dim:
            raise InternalInconsistencyError(f"wrong picard rank in {self.name!r}")


def cfh_rank_bound(dim: int, degree: int) -> int:
    """floor(n(n+1) / (2(k-1))): the Chen-Fu-Hwang cap on rho, exact integers."""
    if degree < 2:
        raise ValueError("minimal components have degree at least 2")
    return (dim * (dim + 1)) // (2 * (degree - 1))


def check_casagrande(fan: Fan) -> BoundCheck:
    rho = picard_rank(fan)
    bound = 2 * fan.dim
    return BoundCheck("casagrande", None, bound, rho, rho <= bound)


def _components(fan: Fan, components) -> tuple[MinimalComponent, ...]:
    return minimal_components(fan) if components is None else tuple(components)


def check_cfh(fan: Fan, components=None) -> tuple[BoundCheck, ...]:
    rho = picard_rank(fan)
    in_range = fan.dim >= 3
    out = []
    for comp in _components(fan, components):
        bound = cfh_rank_bound(fan.dim, comp.degree)
        out.append(BoundCheck("cfh", comp, bound, rho, rho <= bound, in_range))
    return tuple(out)


def check_strong(fan: Fan, components=None) -> tuple[BoundCheck, ...]:
    rho = picard_rank(fan)
    out = []
    for comp in _components(fan, components):
        bound = 2 * comp.codegree + 2
        out.append(BoundCheck("strong", comp, bound, rho, rho <= bound))
    return tuple(out)


def check_weak(fan: Fan, components=None) -> tuple[BoundCheck, ...]:
    rho = picard_rank(fan)
    out = []
    for comp in _components(fan, components):
        cap = WEAK_CAPS.get(comp.codegree)
        if cap is None:
            out.append(BoundCheck("weak", comp, None, rho, None))
        else:
            in_range = fan.dim >= 3 if comp.codegree == 1 else True
            out.append(BoundCheck("weak", comp, cap, rho, rho <= cap, in_range))
    return tuple(out)


def _factor_fans(p: FanoPolytope, fan: Fan) -> list[tuple[list[Sequence[int]], Fan]]:
    """(input indices of its rays in each copy, fan) for each distinct factor
    of a valid ``p``.

    A hull joined from its factors keeps them (``FaceLattice.factors``).
    Factors with the same points in their own coordinates
    (``Factor.vertices``) share one record, and so one fan, built from
    that record with those points as rays; each copy keeps its own
    indices.  A polytope that does not split is its own one factor, on
    the whole fan ``fan``.
    """
    factors = p.face_lattice.factors
    if not factors:
        return [([range(len(p.vertices))], fan)]
    copies: dict[tuple[Vector, ...], list[Factor]] = {}
    for f in factors:
        copies.setdefault(f.vertices, []).append(f)
    return [
        ([f.points for f in fs], Fan._from_record(fs[0].dim, fs[0].vertices, fs[0].lattice))
        for fs in copies.values()
    ]


def analyze(p: FanoPolytope) -> AnalysisReport:
    """Validate, build the fan, and run every bound check.

    The primitive collections and relations of a free sum are those of
    its factors (Batyrev, "On the classification of smooth projective
    toric varieties", 1991): a factor's generator sum lies in its own
    coordinates, so its minimal cone is a cone of that factor.  So they
    are enumerated once on each distinct factor's fan (``_factor_fans``),
    and their indices mapped back to the input's in every copy of that
    factor.  A factor's points are not in index order (``Factor``), so
    each collection and each right-hand side is sorted in the input's
    indices, and the relations by size, then lexicographically, as
    ``primitive_collections`` orders them.  The whole fan is built once;
    the checks read its dimension and Picard rank, and every codegree is
    taken in the whole dimension.  Invalid input produces a report with
    the failure flags set and empty relation, component and check lists;
    it never raises.
    """
    report = validate_smooth_fano(p)
    m = len(p.vertices)
    rho = m - p.dim
    if not report.passed:
        return AnalysisReport(
            p.name, p.dim, m, rho, False, report, (), (), ()
        )
    fan = Fan.from_polytope(p)
    found = []
    for copies, sub in _factor_fans(p, fan):
        for pc in primitive_collections(sub):
            r = primitive_relation(sub, pc)
            for points in copies:
                found.append(
                    PrimitiveRelation(
                        tuple(sorted(points[i] for i in r.collection)),
                        tuple(sorted((points[i], a) for i, a in r.rhs)),
                        r.degree,
                    )
                )
    relations = tuple(sorted(found, key=lambda r: (len(r.collection), r.collection)))
    # an empty right-hand side is exactly a zero-sum collection
    components = tuple(
        MinimalComponent(r.collection, r.degree, fan.dim + 1 - r.degree)
        for r in relations
        if not r.rhs
    )
    checks = (
        (check_casagrande(fan),)
        + check_cfh(fan, components)
        + check_strong(fan, components)
        + check_weak(fan, components)
    )
    return AnalysisReport(
        p.name, p.dim, m, rho, True, report, relations, components, checks
    )
