"""Independent oracle for the benchmark: every expected value in closed form.

Nothing here imports fanorank.  A polytope is described by its factor
list (see ``inputs.py``), and the face fan of a free sum is the product of
the factors' fans, so:

* facets and faces (the empty face included) multiply over the factors:
  ``simplex:k`` has ``k + 1`` facets and ``2^(k+1) - 1`` faces, a polygon
  with ``m`` vertices has ``m`` and ``2m + 1``;
* primitive collections and relations are the union of the factors':
  ``simplex:k`` has one zero-sum collection of size and degree ``k + 1``;
  the hexagon has 3 zero-sum pairs of degree 2 and 6 pairs of degree 1;
  the Hirzebruch surface F_1 has one of each kind and the degree 7
  del Pezzo surface 2 zero-sum pairs and 3 of degree 1;
* minimal components are the zero-sum relations, with codegree
  ``dim + 1 - degree``, and each bound check follows from its definition.

Every reported relation is also checked against the exact coordinates the
program was given, so a relation that has the right shape but the wrong
vectors still fails.  Each ``check_*`` function returns a list of
problems; an empty list means the output agrees with the oracle.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cmp_to_key

WEAK_CAPS = {0: 1, 1: 3, 2: 5}

# Relation signature: (collection size, sorted rhs coefficients, degree).
ZERO_PAIR = (2, (), 2)
DEGREE_ONE_PAIR = (2, (1,), 1)
POLYGON_RELATIONS = {
    "hexagon": (ZERO_PAIR,) * 3 + (DEGREE_ONE_PAIR,) * 6,
    "f1": (ZERO_PAIR, DEGREE_ONE_PAIR),
    "dp7": (ZERO_PAIR,) * 2 + (DEGREE_ONE_PAIR,) * 3,
}
POLYGON_VERTICES = {"hexagon": 6, "f1": 4, "dp7": 5}

# (vertex count, pairs {v, -v}) of the five smooth Fano polygons: P^2,
# F_1, P^1 x P^1 and the del Pezzo surfaces of degree 7 and 6.
TWO_D_CLASS_SIGNATURES = [(3, 0), (4, 1), (4, 2), (5, 2), (6, 3)]


@dataclass(frozen=True)
class Expect:
    """Closed-form invariants of one input; ``condition`` marks an invalid block."""

    name: str
    dim: int
    vertex_count: int
    facets: int | None = None
    faces: int | None = None
    relations: tuple[tuple, ...] = ()
    condition: str | None = None


def expect_product(name: str, factors: tuple[str, ...]) -> Expect:
    dim = vertex_count = 0
    facets = faces = 1
    relations: list[tuple] = []
    for factor in factors:
        if factor.startswith("simplex:"):
            k = int(factor.split(":", 1)[1])
            dim += k
            vertex_count += k + 1
            facets *= k + 1
            faces *= 2 ** (k + 1) - 1
            relations.append((k + 1, (), k + 1))
        else:
            m = POLYGON_VERTICES[factor]
            dim += 2
            vertex_count += m
            facets *= m
            faces *= 2 * m + 1
            relations.extend(POLYGON_RELATIONS[factor])
    return Expect(name, dim, vertex_count, facets, faces, tuple(sorted(relations)))


def expect_invalid(name: str, dim: int, vertex_count: int, condition: str) -> Expect:
    return Expect(name, dim, vertex_count, condition=condition)


def plain_report(report) -> dict:
    """An analysis report object in the shape of fanorank's JSON report."""
    return {
        "name": report.name,
        "dim": report.dim,
        "vertex_count": report.vertex_count,
        "picard_rank": report.picard_rank,
        "valid": report.valid,
        "validation": {
            "passed": report.validation.passed,
            "failures": list(report.validation.failures),
        },
        "primitive_relations": [
            {"lhs": list(r.collection), "rhs": [[i, a] for i, a in r.rhs], "degree": r.degree}
            for r in report.relations
        ],
        "minimal_components": [
            {"indices": list(c.collection), "degree": c.degree, "codegree": c.codegree}
            for c in report.components
        ],
        "checks": [
            {
                "name": c.name,
                "component": list(c.component.collection) if c.component else None,
                "bound": c.bound,
                "rho": c.rho,
                "satisfied": c.satisfied,
                "asserted_range": c.in_asserted_range,
            }
            for c in report.checks
        ],
    }


def expected_checks(dim: int, rho: int, components: list[tuple[int, ...]]) -> list[dict]:
    """The four bound checks, from their definitions."""

    def entry(name, comp, bound, in_range=True):
        satisfied = None if bound is None else rho <= bound
        return {
            "name": name,
            "component": list(comp) if comp is not None else None,
            "bound": bound,
            "rho": rho,
            "satisfied": satisfied,
            "asserted_range": in_range,
        }

    out = [entry("casagrande", None, 2 * dim)]
    for comp in components:
        k = len(comp)
        codegree = dim + 1 - k
        out.append(entry("cfh", comp, dim * (dim + 1) // (2 * (k - 1)), dim >= 3))
        out.append(entry("strong", comp, 2 * codegree + 2))
        cap = WEAK_CAPS.get(codegree)
        out.append(entry("weak", comp, cap, dim >= 3 if codegree == 1 else True))
    return out


def _canonical(records: list[dict]) -> list[str]:
    return sorted(json.dumps(r, sort_keys=True) for r in records)


def check_report(
    expect: Expect,
    report: dict,
    vertices,
    facets: int | None = None,
    faces: int | None = None,
) -> list[str]:
    """Compare one analysis report with the closed form and the coordinates."""
    problems: list[str] = []

    def want(label, got, wanted):
        if got != wanted:
            problems.append(f"{expect.name}: {label} is {got!r}, expected {wanted!r}")

    try:
        want("name", report["name"], expect.name)
        want("dim", report["dim"], expect.dim)
        want("vertex_count", report["vertex_count"], expect.vertex_count)
        want("picard_rank", report["picard_rank"], expect.vertex_count - expect.dim)
        relations = report["primitive_relations"]
        components = report["minimal_components"]
        checks = report["checks"]
        if expect.condition is not None:
            want("valid", report["valid"], False)
            failures = report["validation"]["failures"]
            if expect.condition not in failures:
                problems.append(f"{expect.name}: {expect.condition} not among failures {failures}")
            want("relations", relations, [])
            want("components", components, [])
            want("checks", checks, [])
            return problems
        want("valid", report["valid"], True)
        want("failures", report["validation"]["failures"], [])
        problems += _relation_problems(expect, relations, vertices)
        zero_sum = sorted(tuple(r["lhs"]) for r in relations if not r["rhs"])
        got_components = sorted(
            (tuple(c["indices"]), c["degree"], c["codegree"]) for c in components
        )
        want_components = [(c, len(c), expect.dim + 1 - len(c)) for c in zero_sum]
        want("minimal components", got_components, want_components)
        rho = expect.vertex_count - expect.dim
        want("checks", _canonical(checks), _canonical(expected_checks(expect.dim, rho, zero_sum)))
        if facets is not None:
            want("facets", facets, expect.facets)
        if faces is not None:
            want("faces", faces, expect.faces)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"{expect.name}: malformed report ({exc!r})")
    return problems


def _relation_problems(expect: Expect, relations: list[dict], vertices) -> list[str]:
    problems = []
    m = len(vertices)
    dim = expect.dim
    signatures = []
    seen = set()
    for rel in relations:
        lhs = rel["lhs"]
        rhs = [(i, a) for i, a in rel["rhs"]]
        coeffs = [a for _, a in rhs]
        support = [i for i, _ in rhs]
        ok = (
            lhs == sorted(set(lhs))
            and all(0 <= i < m for i in lhs + support)
            and len(set(support)) == len(support)
            and not set(support) & set(lhs)
            and all(a > 0 for a in coeffs)
            and tuple(lhs) not in seen
        )
        if ok:
            left = [sum(vertices[i][k] for i in lhs) for k in range(dim)]
            right = [sum(a * vertices[i][k] for i, a in rhs) for k in range(dim)]
            ok = left == right and rel["degree"] == len(lhs) - sum(coeffs)
        if not ok:
            problems.append(f"{expect.name}: relation {rel} does not hold")
        seen.add(tuple(lhs))
        signatures.append((len(lhs), tuple(sorted(coeffs)), rel["degree"]))
    if sorted(signatures) != list(expect.relations):
        problems.append(
            f"{expect.name}: relation multiset {Counter(signatures)} "
            f"expected {Counter(expect.relations)}"
        )
    return problems


def check_batch(expects: list[Expect], vertices: list, doc: dict, exit_code: int) -> list[str]:
    """A ``fanorank batch`` aggregate over the corpus file, block by block."""
    problems: list[str] = []
    if exit_code != 1:
        problems.append(f"batch exit code {exit_code}, expected 1 (invalid blocks present)")
    try:
        reports = doc["reports"]
        if [r["name"] for r in reports] != [e.name for e in expects]:
            return problems + ["batch reports are not the corpus blocks in file order"]
        for expect, verts, report in zip(expects, vertices, reports):
            problems += check_report(expect, report, verts)
        summary = doc["summary"]
        invalid = sum(1 for e in expects if e.condition is not None)
        if (summary["polytopes"], summary["validation_failures"], summary["theorem_violations"]) != (
            len(expects),
            invalid,
            0,
        ):
            problems.append(f"batch summary {summary} disagrees")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed batch output ({exc!r})")
    return problems


# -- classification ----------------------------------------------------------------


def opposite_pairs(vertices) -> int:
    """Number of pairs {v, -v} among the vertices: a unimodular invariant."""
    vs = set(map(tuple, vertices))
    return sum(1 for v in vs if tuple(-x for x in v) in vs) // 2


def _angle_cmp(a, b) -> int:
    ha = 0 if a[1] > 0 or (a[1] == 0 and a[0] > 0) else 1
    hb = 0 if b[1] > 0 or (b[1] == 0 and b[0] > 0) else 1
    if ha != hb:
        return ha - hb
    cross = a[0] * b[1] - a[1] * b[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def is_smooth_fano_polygon(vertices) -> bool:
    """Consecutive rays (counterclockwise) have determinant 1 and turn strictly left."""
    ring = sorted(map(tuple, vertices), key=cmp_to_key(_angle_cmp))
    m = len(ring)
    if m < 3:
        return False
    for i in range(m):
        p, v, q = ring[i - 1], ring[i], ring[(i + 1) % m]
        if v[0] * q[1] - v[1] * q[0] != 1:
            return False
        if (v[0] - p[0]) * (q[1] - v[1]) - (v[1] - p[1]) * (q[0] - v[0]) <= 0:
            return False
    return True


def check_two_d_classes(classes: list) -> list[str]:
    """``enumerate_2d`` must return exactly the five smooth Fano polygons."""
    problems = [f"class {c} is not a smooth Fano polygon" for c in classes if not is_smooth_fano_polygon(c)]
    signatures = sorted((len(c), opposite_pairs(c)) for c in classes)
    if signatures != TWO_D_CLASS_SIGNATURES:
        problems.append(f"2D classes {signatures}, expected {TWO_D_CLASS_SIGNATURES}")
    return problems


def check_normal_form(
    expect: Expect, form, source_form, source_vertices, facets: int | None = None
) -> list[str]:
    """A transformed copy's normal form must be its source's, and look like one."""
    problems = []
    rows = [tuple(v) for v in form]
    basis = {tuple(1 if j == i else 0 for j in range(expect.dim)) for i in range(expect.dim)}
    if source_form is None or rows != [tuple(v) for v in source_form]:
        problems.append(f"{expect.name}: copy left its source class")
    if len(set(rows)) != expect.vertex_count or not basis <= set(rows):
        problems.append(f"{expect.name}: normal form {rows} is not a basis-anchored vertex list")
    if opposite_pairs(rows) != opposite_pairs(source_vertices):
        problems.append(f"{expect.name}: normal form changed the pairs {{v, -v}}")
    if facets is not None and facets != expect.facets:
        problems.append(f"{expect.name}: {facets} facets, expected {expect.facets}")
    return problems


def check_source_forms(classes: dict[str, str], forms: dict[str, tuple]) -> list[str]:
    """Sources share a normal form exactly when they are the same class."""
    problems = []
    names = sorted(forms)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if (forms[a] == forms[b]) != (classes[a] == classes[b]):
                problems.append(f"normal forms of {a} and {b} disagree with their classes")
    return problems
