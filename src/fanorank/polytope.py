"""Fano polytopes: exact face enumeration, smoothness checks, canonical forms.

A Fano polytope is a full-dimensional lattice polytope with primitive
vertices and the origin as its only interior lattice point.  The smooth
ones (every facet's vertex set a lattice basis) encode nonsingular toric
Fano varieties through their face fans.  This module owns the polytope
side of that dictionary: facet enumeration by exact ridge pivoting
(gift-wrapping, Chand and Kapur 1970), validation of the smooth Fano
conditions, a canonical form for unimodular-equivalence tests, and the
standard constructions (simplices, the hexagon, free sums).  Inputs the
walk cannot finish (non-simplicial hulls, points that are not vertices,
the origin on a facet hyperplane) go to an exhaustive hyperplane scan,
which gathers the evidence the validation report quotes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from operator import mul
from typing import Container, Iterable, Sequence

from .lattice import (
    InternalInconsistencyError,
    ShapeMismatchError,
    Vector,
    content,
    determinant,
    int_vector,
    kernel_basis,
    mat_vec,
    matrix_rank,
    primitive_part,
    reduced_echelon,
    unimodular_inverse,
)


class NotFanoShapeError(ValueError):
    """The vertex set does not bound a full-dimensional body around the origin."""


class BadIndexError(IndexError):
    """A vertex index is out of range."""


Facet = tuple[tuple[int, ...], Vector, int]


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _affine_normal(pts: Sequence[Vector]) -> Vector | None:
    """Primitive integer normal of the affine hull of ``n`` points in Z^n.

    Returns None when the points do not span a hyperplane.
    """
    base = pts[0]
    diffs = [[a - b for a, b in zip(q, base)] for q in pts[1:]]
    kernel = kernel_basis(diffs, len(base))
    return primitive_part(kernel[0]) if len(kernel) == 1 else None


def _exhaustive_scan(verts: Sequence[Vector], n: int) -> tuple[list[Facet], list]:
    """Supporting-hyperplane search over all n-subsets of the points.

    Returns (facets, evidence) where facets lists (indices, outward
    normal, offset) triples with every other point strictly below the
    hyperplane, in the order of the subsets, and evidence lists one-sided
    hyperplanes that contain extra points as (indices, extra indices,
    offset), the witnesses against simpliciality.  Offsets are oriented
    so the points lie on the side ``<= c``.  The cost is C(m, n)
    hyperplanes, each tested against every point.
    """
    m = len(verts)
    facets = []
    evidence = []
    allidx = range(m)
    for subset in combinations(allidx, n):
        pts = [verts[i] for i in subset]
        u = _affine_normal(pts)
        if u is None:
            continue
        c = _dot(u, pts[0])
        chosen = set(subset)
        above = below = False
        on: list[int] = []
        for w in allidx:
            if w in chosen:
                continue
            t = _dot(u, verts[w])
            if t > c:
                above = True
                if below:
                    break
            elif t < c:
                below = True
                if above:
                    break
            else:
                on.append(w)
        if above and below:
            continue
        if above:
            u = tuple(-x for x in u)
            c = -c
        if on:
            evidence.append((subset, tuple(on), c))
        else:
            facets.append((subset, u, c))
    return facets, evidence


def _widest_pivot(
    u: Sequence[int],
    c: int,
    heights: Sequence[int],
    v: Sequence[int],
    delta: int,
    verts: Sequence[Vector],
    skip: Container[int],
) -> tuple[Vector, int, list[int]] | None:
    """Rotate the hyperplane ``u.x = c`` about its meet with ``v.x = delta``.

    ``heights[w]`` is ``c - u.w``, which must be positive for every point
    outside ``skip``.  The rotated hyperplane ``b u + a v`` (offset
    ``b c + a delta``) is the first of the pencil to touch another point:
    for a point ``w``, ``a = c - u.w`` and ``b = v.w - delta``, and the
    touching points are those of largest ``b / a``, compared by
    cross-multiplication.  Returns (primitive normal, offset, touching
    points), or None when a point outside ``skip`` is not strictly below
    ``u.x = c`` or no point is left.
    """
    best_a, best_b = 1, None
    touching: list[int] = []
    for w, vert in enumerate(verts):
        if w in skip:
            continue
        a = heights[w]
        if a <= 0:
            return None
        b = _dot(v, vert) - delta
        if best_b is None or b * best_a > best_b * a:
            best_a, best_b, touching = a, b, [w]
        elif b * best_a == best_b * a:
            touching.append(w)
    if best_b is None:
        return None
    normal = [best_b * x + best_a * y for x, y in zip(u, v)]
    g = content(normal)
    return tuple(x // g for x in normal), (best_b * c + best_a * delta) // g, touching


def _first_facet(verts: Sequence[Vector], n: int) -> Facet | None:
    """One facet, found by pivoting a hyperplane until it holds n points.

    The start touches only the lexicographically largest point: its
    normal ``(M^(n-1), ..., M, 1)`` orders the points lexicographically
    once ``M`` exceeds every coordinate difference.  Each pivot rotates
    the hyperplane about the face it touches, towards a direction that is
    constant on that face, so it keeps touching only points of one face
    and gains at least one.  Returns None when the touched points are
    affinely dependent or more than n, which no simplicial hull whose
    points are all vertices allows, or when the points are not
    full-dimensional.
    """
    top = max(range(len(verts)), key=verts.__getitem__)
    big = 2 * max(abs(x) for vert in verts for x in vert) + 1
    u = tuple(big ** (n - 1 - k) for k in range(n))
    c = _dot(u, verts[top])
    face = [top]
    while True:
        base = verts[face[0]]
        kernel = kernel_basis([[a - b for a, b in zip(verts[i], base)] for i in face[1:]], n)
        if len(kernel) != n + 1 - len(face):
            return None
        if len(face) == n:
            return tuple(sorted(face)), u, c
        v = next(x for x in kernel if matrix_rank((u, x)) == 2)
        heights = [c - _dot(u, vert) for vert in verts]
        pivot = _widest_pivot(u, c, heights, v, _dot(v, base), verts, set(face))
        if pivot is None:
            return None
        u, c, touching = pivot
        face += touching


def _pivot_walk(verts: Sequence[Vector], n: int) -> list[Facet] | None:
    """All facets of a simplicial hull by crossing each ridge exactly once.

    From a facet with outward normal ``u`` and offset ``c``, one
    fraction-free Gauss-Jordan elimination of its vertex matrix gives the
    dual rows ``phi_i`` with ``phi_i . p_j = 0`` for ``j != i`` and
    ``phi_i . p_i > 0``; ``phi_i`` vanishes on the ridge opposite vertex
    ``i``, so the neighbouring facet across that ridge is the widest
    pivot of ``u`` towards ``v = -phi_i``.  Returns the facets as
    (indices, outward normal, offset) in index order, exactly the
    triples of ``_exhaustive_scan``, or None where that scan must decide:
    a tie for the pivot (more than n points on a facet hyperplane), a
    point other than the facet's own on its hyperplane, or the origin on
    a facet hyperplane (a singular facet matrix).
    """
    first = _first_facet(verts, n)
    if first is None:
        return None
    unit = [[int(j == k) for j in range(n)] for k in range(n)]
    first_mask = sum(1 << i for i in first[0])
    found = {first_mask: first}
    crossed: set[int] = set()
    todo = [(first_mask, first)]
    while todo:
        mask, (idx, u, c) = todo.pop()
        if c == 0:
            return None
        rows, _ = reduced_echelon(
            [[verts[i][k] for i in idx] + unit[k] for k in range(n)]
        )
        sign = 1 if rows[0][0] > 0 else -1
        heights = [c - _dot(u, vert) for vert in verts]
        for r, i in enumerate(idx):
            ridge = mask & ~(1 << i)
            if ridge in crossed:
                continue
            crossed.add(ridge)
            v = [-sign * x for x in rows[r][n:]]
            pivot = _widest_pivot(u, c, heights, v, 0, verts, idx)
            if pivot is None:
                return None
            normal, offset, touching = pivot
            if len(touching) > 1:
                return None
            new_mask = ridge | 1 << touching[0]
            if new_mask not in found:
                facet = (tuple(sorted(set(idx) - {i} | {touching[0]})), normal, offset)
                found[new_mask] = facet
                todo.append((new_mask, facet))
    return sorted(found.values())


def incidence_masks(cells: Sequence[Sequence[int]], m: int) -> tuple[int, ...]:
    """Bit ``c`` of entry ``v`` is set iff ``cells[c]`` holds ``v``.

    The library's one face representation: given the maximal cells of a
    simplicial complex (facets, or maximal cones of a fan), a point set
    is a face iff the AND of its masks (every cell, for the empty set) is
    nonzero.
    """
    masks = [0] * m
    for c, cell in enumerate(cells):
        for v in cell:
            masks[v] |= 1 << c
    return tuple(masks)


def common_cells(masks: Sequence[int], indices: Iterable[int], full: int) -> int:
    """AND of ``masks`` over ``indices``, from ``full``: the cells holding them all."""
    for i in indices:
        if not 0 <= i < len(masks):
            raise BadIndexError(f"index {i} out of range 0..{len(masks) - 1}")
        full &= masks[i]
    return full


@dataclass(frozen=True)
class FaceLattice:
    """Facets of a simplicial polytope, as sorted vertex index sets.

    Face queries go through the face fan: ``Fan.from_polytope(p).is_cone``.
    """

    dim: int
    facets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail record for every smooth Fano condition, not just the first."""

    polytope_name: str
    conditions: tuple[ConditionResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.conditions if not c.passed)

    def condition(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class FanoPolytope:
    """A candidate Fano polytope: ordered vertex list in its input order.

    Construction only enforces structural sanity (``int`` coordinates,
    consistent lengths); anything else, ``bool``, ``float`` and
    ``Fraction`` included, raises TypeError instead of being truncated.
    The geometric conditions are checked by ``validate`` so that
    bad input files produce diagnostics instead of exceptions.  Instances
    are immutable and hashable.
    """

    dim: int
    vertices: tuple[Vector, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        verts = tuple(int_vector(v, "vertex") for v in self.vertices)
        for v in verts:
            if len(v) != self.dim:
                raise ShapeMismatchError(
                    f"vertex {v} has length {len(v)}, expected {self.dim}"
                )
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        object.__setattr__(self, "vertices", verts)

    # -- hull ------------------------------------------------------------

    @cached_property
    def _hull_scan(self) -> tuple[list[Facet], list]:
        """Facets of the hull by exact ridge pivoting, with evidence.

        Returns (facets, evidence) as ``_exhaustive_scan`` does: facets
        are (indices, outward normal, offset) triples in index order, and
        evidence lists the one-sided hyperplanes that hold extra points.
        A simplicial hull whose points are all vertices, with the origin
        on no facet hyperplane, is walked facet by facet at a cost of
        about facets * n * m dot products, and has no evidence.  Any
        other input stops the walk and takes the exhaustive scan, so the
        validation report sees the same facets and evidence either way.
        """
        facets = _pivot_walk(self.vertices, self.dim)
        if facets is None:
            return _exhaustive_scan(self.vertices, self.dim)
        return facets, []

    @cached_property
    def _affine_rank(self) -> int:
        base = self.vertices[0]
        diffs = [
            [v[k] - base[k] for k in range(self.dim)] for v in self.vertices[1:]
        ]
        return matrix_rank(diffs) if diffs else 0

    @cached_property
    def face_lattice(self) -> FaceLattice:
        """Facets as sorted index sets; requires genuine Fano shape.

        Raises NotFanoShapeError when the hull is not full-dimensional,
        the origin is not interior, or the hull is not simplicial (the
        last goes beyond the strict precondition but prevents silently
        wrong face data downstream).
        """
        if self._affine_rank < self.dim:
            raise NotFanoShapeError("polytope is not full-dimensional")
        facets, evidence = self._hull_scan
        if any(c <= 0 for _, _, c in facets) or any(c <= 0 for _, _, c in evidence):
            raise NotFanoShapeError("origin is not an interior point")
        if evidence:
            raise NotFanoShapeError("polytope is not simplicial")
        incident = set()
        for subset, _, _ in facets:
            incident.update(subset)
        if len(incident) != len(self.vertices):
            raise NotFanoShapeError("some input point is not a vertex of the hull")
        return FaceLattice(self.dim, tuple(sorted(f for f, _, _ in facets)))

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        return validate_smooth_fano(self)

    # -- canonical form ----------------------------------------------------

    def normal_form(self) -> tuple[Vector, ...]:
        """Canonical vertex matrix under lattice maps and vertex reorderings.

        Two validated polytopes have equal normal forms exactly when one
        is the image of the other under a unimodular map composed with a
        permutation of the vertices.  Every facet basis is mapped to the
        standard basis (in every ordering) and the lexicographically
        least sorted vertex matrix over all those coordinates wins; the
        cost is (number of facets) * dim! * vertices, fine at desk scale.
        """
        verts = self.vertices
        n = self.dim
        best = None
        for facet in self.face_lattice.facets:
            cols = tuple(zip(*(verts[i] for i in facet)))
            binv = unimodular_inverse(cols)
            images = [mat_vec(binv, v) for v in verts]
            for perm in permutations(range(n)):
                key = tuple(sorted(tuple(w[p] for p in perm) for w in images))
                if best is None or key < best:
                    best = key
        if best is None:
            raise InternalInconsistencyError("a validated polytope has no facets")
        return best


def validate_smooth_fano(p: FanoPolytope) -> ValidationReport:
    """Check every smooth Fano polytope condition and report all failures.

    Conditions, in evaluation order: distinct vertices, primitive
    vertices, full dimension, origin strictly interior, simplicial hull,
    every input point a hull vertex, unimodular facets.  Unimodular
    facets sit on lattice-distance-1 hyperplanes, which already forces
    the origin to be the only interior lattice point, so that part of the
    Fano definition needs no lattice-point enumeration.
    """
    verts = p.vertices
    n = p.dim
    m = len(verts)
    conditions: list[ConditionResult] = []

    dup = sorted({v for v in verts if verts.count(v) > 1})
    conditions.append(
        ConditionResult(
            "vertices_distinct",
            not dup,
            "" if not dup else f"repeated vertices: {dup}",
        )
    )

    bad_prim = [v for v in verts if content(v) != 1]
    conditions.append(
        ConditionResult(
            "vertices_primitive",
            not bad_prim,
            "" if not bad_prim else f"non-primitive vertices: {bad_prim}",
        )
    )

    full = m >= n + 1 and p._affine_rank == n
    conditions.append(
        ConditionResult(
            "full_dimensional",
            full,
            "" if full else f"affine rank {p._affine_rank} < {n}",
        )
    )

    if not full:
        skipped = "not evaluated: polytope is not full-dimensional"
        for name in ("origin_interior", "simplicial", "vertices_extremal", "facets_unimodular"):
            conditions.append(ConditionResult(name, False, skipped))
        return ValidationReport(p.name, tuple(conditions))

    facets, evidence = p._hull_scan
    min_offset = min(
        [c for _, _, c in facets] + [c for _, _, c in evidence], default=0
    )
    conditions.append(
        ConditionResult(
            "origin_interior",
            min_offset > 0,
            "" if min_offset > 0 else f"supporting hyperplane at offset {min_offset}",
        )
    )

    conditions.append(
        ConditionResult(
            "simplicial",
            not evidence,
            ""
            if not evidence
            else f"facet hyperplane with extra vertices, e.g. {evidence[0][0]} + {evidence[0][1]}",
        )
    )

    incident: set[int] = set()
    for subset, _, _ in facets:
        incident.update(subset)
    for subset, on, _ in evidence:
        incident.update(subset)
        incident.update(on)
    loose = sorted(set(range(m)) - incident)
    conditions.append(
        ConditionResult(
            "vertices_extremal",
            not loose,
            "" if not loose else f"points inside the hull: {[verts[i] for i in loose]}",
        )
    )

    bad_facets = [
        subset
        for subset, _, _ in facets
        if abs(determinant([verts[i] for i in subset])) != 1
    ]
    conditions.append(
        ConditionResult(
            "facets_unimodular",
            not bad_facets,
            "" if not bad_facets else f"non-unimodular facets: {bad_facets}",
        )
    )

    return ValidationReport(p.name, tuple(conditions))


# -- constructors -----------------------------------------------------------


def simplex(n: int) -> FanoPolytope:
    """The polytope of n-dimensional projective space: e_1..e_n and -(e_1+..+e_n)."""
    if n < 1:
        raise ValueError("simplex dimension must be at least 1")
    verts = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    verts.append(tuple(-1 for _ in range(n)))
    return FanoPolytope(n, tuple(verts), f"simplex:{n}")


def hexagon() -> FanoPolytope:
    """The hexagon of the degree 6 del Pezzo surface."""
    verts = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
    return FanoPolytope(2, verts, "hexagon")


def free_sum(p: FanoPolytope, q: FanoPolytope) -> FanoPolytope:
    """Convex hull of P x {0} and {0} x Q; the polytope of the product variety."""
    zp = (0,) * p.dim
    zq = (0,) * q.dim
    verts = tuple(v + zq for v in p.vertices) + tuple(zp + w for w in q.vertices)
    return FanoPolytope(p.dim + q.dim, verts, f"product({p.name},{q.name})")
