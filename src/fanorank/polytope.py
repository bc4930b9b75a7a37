"""Fano polytopes: exact face enumeration, smoothness checks, canonical forms.

A Fano polytope is a full-dimensional lattice polytope with primitive
vertices and the origin as its only interior lattice point.  The smooth
ones (every facet's vertex set a lattice basis) encode nonsingular toric
Fano varieties through their face fans.  This module owns the polytope
side of that dictionary: facet enumeration by exact ridge pivoting
(gift-wrapping, Chand and Kapur 1970), validation of the smooth Fano
conditions, a canonical form for unimodular-equivalence tests, and the
standard constructions (simplices, the hexagon, free sums).  The walk
pivots only across ridges whose second facet is not known yet, so a
simplicial hull of ``F`` facets takes ``F - 1`` pivots, and no pivot
runs an elimination; a flat input ends it with its affine rank.  It
finishes every full-dimensional input: a facet that holds more than
``n`` points, or whose hyperplane passes through the origin, has its
ridges found by the same walk one dimension down, so the validation
report's evidence against simpliciality comes from the facets it found.
The walks of one hull share one table keyed by their points, so no point
list is walked twice for it.  A free sum of smooth Fano shapes is not
walked whole: the first facet's dual basis splits the vertices into the
components of their linear matroid, each factor is walked in its own
coordinates from its share of that facet, and the facets are the joins
of the factors' facets, in the product order of those facets.  Factors
with the same coordinates are walked once, so hexagon^k takes 5 pivots
for its ``6^k`` facets.  Every other input, an invalid free sum
included, is walked whole from the same first facet, and its facets are
sorted.  Both paths give one record, ``FaceLattice``, which validation,
the canonical form and the face fan read as it stands, in whichever
order it holds its facets.  A joined record also keeps its factors:
``analyze`` enumerates the primitive collections on their own fans, once
per distinct factor, validation reads the shape conditions and
unimodularity off them, and the facet inverses are formed from them only
when something reads them, as the canonical form and point location do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, permutations, product, repeat
from operator import add, floordiv, itemgetter, mul, neg, sub
from typing import Iterator, Sequence

from .lattice import (
    InternalInconsistencyError,
    Matrix,
    ShapeMismatchError,
    Vector,
    content,
    determinant,  # noqa: F401  (the benchmark's traced run wraps polytope.determinant)
    dual_basis,
    identity_matrix,
    int_vector,
    mat_vec,
    reduced_echelon,
    unimodular_inverse,  # noqa: F401  (likewise wrapped by the benchmark's traced run)
)


class NotFanoShapeError(ValueError):
    """The vertex set does not bound a full-dimensional body around the origin."""


Facet = tuple[tuple[int, ...], Vector, int]
# (d, D) for a facet whose points, as the columns of B in index order, are
# linearly independent: d = |det B| and D = d B^-1, so D.B = d I.
DualBasis = tuple[int, Matrix]
# the first facet, with its dual basis and that basis's products with every
# point, or None for both when the facet has more than n points or c = 0
Seed = tuple[Facet, DualBasis | None, Matrix | None]


@dataclass(frozen=True, eq=False)
class FaceLattice:
    """The hull's one record, from the facet walk to the face fan.

    ``facets[k]`` holds the indices of all points on facet ``k``, in index
    order, ``offsets[k]`` its offset ``c`` under its primitive outward
    normal ``u`` and ``duals[k]`` its dual basis (``DualBasis``), or None
    unless it has ``n`` points off the origin; ``u = (c / d) (D_1 + ... +
    D_n)`` is not kept.  A walk's record (``walked``) holds its dual bases
    from the start, and its facets in lexicographic order.  A hull joined
    from its factors (``_free_sum_hull``) keeps them in ``factors`` and
    holds its facets in the product order of the factors' facets, last
    factor fastest, each factor's in its own record's order; its inverses
    are formed from the factors, in that order (``_joined_inverses``), the
    first time ``inverses`` or ``duals`` is read, and validation and
    ``analyze`` read neither.  Two records are equal iff they hold the same
    facets, each with the same offset and dual basis, formed if need be,
    in any order; ``factors`` takes no part.
    ``face_lattice`` is ``FanoPolytope._hull`` once the shape conditions
    hold.  Face queries go through the face fan:
    ``Fan.from_polytope(p).is_cone``.
    """

    facets: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]
    factors: tuple[Factor, ...] = field(default=(), repr=False)

    @classmethod
    def walked(
        cls,
        facets: tuple[tuple[int, ...], ...],
        offsets: tuple[int, ...],
        duals: tuple[DualBasis | None, ...],
    ) -> FaceLattice:
        """A walk's record, which holds its dual bases from the start."""
        lattice = cls(facets, offsets)
        lattice.__dict__["duals"] = duals
        return lattice

    @cached_property
    def duals(self) -> tuple[DualBasis | None, ...]:
        """Each facet's dual basis; a joined record's are its ``inverses`` at ``d = 1``."""
        return tuple(zip(repeat(1), self.inverses))

    @cached_property
    def inverses(self) -> tuple[Matrix | None, ...]:
        """Each facet's integer inverse: ``D`` where ``d = 1``, None where it is
        not unimodular; a joined record's are formed from its factors when
        first read (``_joined_inverses``)."""
        if self.factors:
            return _joined_inverses(self.factors)
        return tuple(None if dual is None or dual[0] != 1 else dual[1] for dual in self.duals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaceLattice):
            return NotImplemented
        return sorted(zip(self.facets, self.offsets, self.duals)) == sorted(
            zip(other.facets, other.offsets, other.duals)
        )


# a walk's record and its facets' normals (``_pivot_walk``), and the walks of
# one hull, keyed by their points (``FanoPolytope._hull``)
Walk = tuple[FaceLattice, tuple[Vector, ...]]
Walks = dict[tuple[Vector, ...], Walk]


@dataclass(frozen=True)
class Factor:
    """One factor of a free sum: its ``points`` (indices into the input),
    its dimension ``dim``, those points as ``vertices`` in the factor's own
    coordinates, its hull's record ``lattice`` over them, and the ``rows``
    that lift a functional ``e`` on its coordinates to one on the input's,
    ``e_1 rows[0] + ... + e_dim rows[dim - 1]`` (``_lift``).  The points
    are ordered by their coordinates, largest first, not by index, so
    factors with the same ``vertices`` share one ``lattice``.
    """

    points: tuple[int, ...]
    dim: int
    vertices: tuple[Vector, ...]
    lattice: FaceLattice
    rows: Matrix


def _lift(rows: Matrix, e: Sequence[int]) -> Vector:
    """``sum_k e_k rows[k]``, skipping each zero ``e_k``; ``e`` must not be zero."""
    out = None
    for ek, row in zip(e, rows):
        if ek:
            term = row if ek == 1 else tuple(map(ek.__mul__, row))
            out = term if out is None else tuple(map(add, out, term))
    return out


def _joins(parts: Sequence[Sequence[tuple[int, ...]]]) -> Iterator[list[int]]:
    """Each join of one tuple from every one of two or more ``parts``, as a
    sorted list, in the product order of the parts."""
    joins = parts[0]
    for part in parts[1:-1]:
        joins = [a + b for a in joins for b in part]
    return (sorted(a + b) for a, b in product(joins, parts[-1]))


def _joined_inverses(factors: Sequence[Factor]) -> tuple[Matrix, ...]:
    """The facet inverses of the hull joined from ``factors``, in the
    product order of their facets, as ``_free_sum_hull`` lists the facets.

    Each factor facet's inverse rows are lifted to the input's coordinates
    once (``_lift``).  Point ``w`` of the ``j``-th factor facet, counted
    over all factors in their records' order, has the code ``w s + j``,
    ``s`` the number of factor facets, and its lifted row under that code;
    a join's codes, sorted, are in the order of its points, so its inverse
    is their rows.
    """
    span = sum(len(f.lattice.facets) for f in factors)
    lifted: dict[int, Vector] = {}
    parts = []
    j = 0
    for f in factors:
        part = []
        for facet, inverse in zip(f.lattice.facets, f.lattice.inverses):
            codes = tuple(f.points[x] * span + j for x in facet)
            lifted.update(zip(codes, (_lift(f.rows, e) for e in inverse)))
            part.append(codes)
            j += 1
        parts.append(part)
    get = lifted.__getitem__
    return tuple(tuple(map(get, codes)) for codes in _joins(parts))


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _widest_pivot(
    u: Sequence[int],
    c: int,
    v: Sequence[int],
    delta: int,
    below: Sequence[tuple[int, int]],
    tilts: Sequence[int],
) -> tuple[Vector, int, list[int]]:
    """Rotate the hyperplane ``u.x = c`` about its meet with ``v.x = delta``.

    ``below`` lists, in index order, each point ``w`` off the hyperplane
    with its height ``a = c - u.w``, which must be positive; it must not
    be empty.  ``tilts[w]`` is ``b = v.w - delta``.  The rotated
    hyperplane ``b u + a v`` (offset ``b c + a delta``) is the first of
    the pencil to touch another point: the touching points are those of
    largest ``b / a``, compared by cross-multiplication.
    Returns (primitive normal, offset, touching points).
    """
    best_a, best_b = 1, None
    touching: list[int] = []
    for w, a in below:
        if a <= 0:
            raise InternalInconsistencyError(f"point {w} is not below the hyperplane {u}")
        b = tilts[w]
        if best_b is None or b * best_a > best_b * a:
            best_a, best_b, touching = a, b, [w]
        elif b * best_a == best_b * a:
            touching.append(w)
    normal = [best_b * x + best_a * y for x, y in zip(u, v)]
    g = content(normal)
    return tuple(x // g for x in normal), (best_b * c + best_a * delta) // g, touching


def _first_facet(verts: Sequence[Vector], n: int) -> Facet:
    """One facet hyperplane with all of its points, found by pivoting.

    The start touches only the lexicographically largest point and its
    copies: its normal ``(M^(n-1), ..., M, 1)`` orders the points
    lexicographically once ``M`` exceeds every coordinate difference.
    Each pivot rotates the hyperplane about the face it touches, towards
    a direction that is constant on that face, so it keeps touching only
    points of one face and gains at least one point off the face's affine
    hull.  It stops when the touched points span a hyperplane.

    It carries a basis ``K`` of the directions constant on the face (``u``
    in their span), each row primitive and held with its products with
    every point.  A point joining the face cuts ``K`` by one fraction-free
    step, and a pivot reads its tilts ``t`` off a row other than ``+-u``
    and updates the heights ``h = c - u.w`` in O(m) as ``(b h - a t) / g``,
    so no pivot runs an elimination.  When no point is off the face, the
    points are flat, of affine rank ``n - len(K)``: NotFanoShapeError.
    """
    top = max(verts)
    big = 2 * max(abs(x) for vert in verts for x in vert) + 1
    u = tuple(big ** (n - 1 - k) for k in range(n))
    c = _dot(u, top)
    heights = [c - _dot(u, vert) for vert in verts]
    base = heights.index(0)
    kernel = list(zip(identity_matrix(n), zip(*verts)))
    while True:
        below = [(w, h) for w, h in enumerate(heights) if h]
        if not below:
            raise NotFanoShapeError(f"affine rank {n - len(kernel)} < {n}")
        if len(kernel) == 1:
            return tuple(w for w, h in enumerate(heights) if not h), u, c
        v, products = next((v, p) for v, p in kernel if u not in (v, tuple(map(neg, v))))
        delta = products[base]
        tilts = [t - delta for t in products]
        new_u, c, touching = _widest_pivot(u, c, v, delta, below, tilts)
        a, b = heights[touching[0]], tilts[touching[0]]
        g = next((b * x + a * y) // z for x, y, z in zip(u, v, new_u) if z)
        heights = [(b * h - a * t) // g for h, t in zip(heights, tilts)]
        u = new_u
        for w in touching:
            cut = [p[w] - p[base] for _, p in kernel]
            j = next((k for k, s in enumerate(cut) if s), None)
            if j is None:
                continue
            (vj, pj), sj = kernel.pop(j), cut.pop(j)
            for k, (s, (vk, pk)) in enumerate(zip(cut, kernel)):
                if s:
                    vk = list(map(sub, map(sj.__mul__, vk), map(s.__mul__, vj)))
                    pk = map(sub, map(sj.__mul__, pk), map(s.__mul__, pj))
                    div = repeat(content(vk))
                    kernel[k] = tuple(map(floordiv, vk, div)), tuple(map(floordiv, pk, div))


def _lifted_ridges(
    verts: Sequence[Vector], n: int, idx: tuple[int, ...], u: Vector, walks: Walks
) -> Iterator[tuple[int, Vector, int]]:
    """(ridge mask, v, delta) for each ridge of the facet ``idx`` with normal ``u``.

    The facet is walked one dimension down.  Dropping a coordinate where
    ``u`` is nonzero maps its hyperplane affinely onto ``Q^(n-1)``, and
    the image is scaled about the facet's centroid, so that no facet of
    the image passes through its origin; its walk is read from ``walks``,
    the hull's table of walks by their points, or run and kept there.  Each
    facet ``w.y <= d`` of the image lifts to ``v = w`` with a zero at the
    dropped coordinate: ``v.x = delta`` holds on the ridge's points and
    ``v.x < delta`` on the facet's other points.
    """
    j = next(k for k, x in enumerate(u) if x)
    pts = [verts[i][:j] + verts[i][j + 1 :] for i in idx]
    total = [sum(col) for col in zip(*pts)]
    image = tuple(tuple(len(pts) * x - t for x, t in zip(p, total)) for p in pts)
    walk = walks.get(image)
    if walk is None:
        walk = walks[image] = _pivot_walk(image, n - 1, walks)
    lattice, normals = walk
    for ridge, w in zip(lattice.facets, normals):
        v = w[:j] + (0,) + w[j:]
        yield sum(1 << idx[s] for s in ridge), v, _dot(v, verts[idx[ridge[0]]])


def _exchange(rows: Matrix, y: Sequence[int], r: int, pos: int, d: int) -> Matrix:
    """The rows of ``D``, or of the products ``P = D.W`` with every point,
    after the point ``w`` replaces column ``r`` of ``B`` and the columns
    are put back in index order, ``w`` at ``pos``.

    A simplex pivot in exact integers: with ``y`` the column ``w`` of
    ``P`` (``D`` times the point), the new matrix has ``|det| = |y_r|``,
    row ``r`` carries over and row ``k`` becomes
    ``(y_r D_k - y_k D_r) / d``, an exact division by Sylvester's
    identity; every row is negated when ``y_r < 0``, so that ``d`` stays
    positive.  ``D`` and ``P`` take the same step, in two calls, so a
    facet that needs no products takes only the first.  A row with
    ``y_k = 0`` and an unchanged ``d`` is shared, not copied.  Each row
    is a pipeline of C-level ``map`` calls (the bound products, ``sub``
    and ``floordiv``), with no multiplication when ``|y_r| = 1`` and no
    division when ``d = 1``, as on every facet of a smooth polytope; every
    step stays exact.  Costs O(n (n + m)) for both and ``m`` points, where
    a fresh elimination and its products cost O(n^2 (n + m)).
    """
    s = 1 if y[r] > 0 else -1
    e = s * y[r]
    dr = rows[r]
    out = []
    for dk, yk in zip(rows[:r] + rows[r + 1 :], y[:r] + y[r + 1 :]):
        if not yk and e == d:
            out.append(dk)
            continue
        row = dk if e == 1 else map(e.__mul__, dk)
        if yk:
            row = map(sub, row, map((s * yk).__mul__, dr))
        out.append(tuple(row if d == 1 else map(floordiv, row, repeat(d))))
    out.insert(pos, dr if s > 0 else tuple(map(neg, dr)))
    return tuple(out)


def _seed(verts: Sequence[Vector], n: int) -> Seed:
    """The first facet (``_first_facet``), with its dual basis ``(d, D)`` and
    the products ``P = D.W`` with every point when it has ``n`` points off
    the origin, else with None for both: one elimination, O(n^2 (n + m))."""
    first = _first_facet(verts, n)
    idx, _, c = first
    if len(idx) != n or not c:
        return first, None, None
    dual = dual_basis(list(zip(*(verts[i] for i in idx))))
    return first, dual, tuple(tuple(_dot(row, vert) for vert in verts) for row in dual[1])


def _pivot_walk(verts: Sequence[Vector], n: int, walks: Walks, seed: Seed | None = None) -> Walk:
    """Every facet hyperplane of a full-dimensional hull, by crossing each open ridge once.

    A facet is all points on its hyperplane, so a non-simplicial facet or
    a repeated point keeps all of its points together, with its primitive
    outward normal and offset.  A facet of ``n`` points registers its ``n``
    drop-one ridges when it is found (the first facet too); a ridge is
    closed once both of its facets are known, or once it has been
    crossed, and a closed ridge is never pivoted.  So on a simplicial
    hull every pivot finds a new facet: ``F - 1`` pivots for ``F``
    facets, not ``F n / 2``.  A facet of ``n`` points with offset
    ``c != 0`` has a dual basis ``(d, D)`` (see ``DualBasis``), and while
    it has an open ridge the walk also holds its products ``P = D.W``
    with every point.  Row ``D_i`` vanishes on the ridge opposite its
    vertex ``i`` and is positive at ``i``, so the neighbouring facet
    across that ridge is the widest pivot of the normal towards
    ``v = -D_i``, whose tilts ``v.w = -P_iw`` are read off ``P``; the
    heights are ``c - u.w = c - c (sum_i P_iw) / d``, as
    ``u = (c / d) (D_1 + ... + D_n)``.  So a facet costs O(n m) for
    ``m`` points.  A neighbour of ``n`` points off the origin gains a
    single point, and gets ``D``, and ``P`` if it has an open ridge, by
    an O(n (n + m)) exchange (``_exchange``), run when it is popped, so
    that a pending facet shares its parent's products instead of holding
    its own.  The walk starts from ``seed``, the first facet with its
    dual basis and products (``_seed``, which runs when no seed is
    given).  A fresh elimination (``dual_basis`` of the facet's columns)
    is needed only for the seed and for a facet reached from a
    non-simplicial or origin facet, so once per walk on a smooth input.
    Any other facet takes its ridges from the same walk one dimension
    down (``_lifted_ridges``) and its tilts from ``v.w`` directly; it
    skips only ridges already crossed, so on a non-simplicial hull a
    pivot may land on a facet already known.  In dimension 1 the facets
    are the least and the largest point, each with its copies, the dual
    basis of a one-point facet is read off its point, and the seed is not
    read.  The nested walks are shared through ``walks``, the table of
    walks by their points that ``FanoPolytope._hull`` makes for one hull.
    Returns the hull's record (``FaceLattice``) and, in the same order, the
    facets' normals, which only the walk one dimension up reads.  Flat
    points raise NotFanoShapeError with their affine rank.
    """
    if n == 1:
        xs = [x for x, in verts]
        lo, hi = min(xs), max(xs)
        if lo == hi:
            raise NotFanoShapeError("affine rank 0 < 1")
        top = tuple(w for w, x in enumerate(xs) if x == hi)
        bottom = tuple(w for w, x in enumerate(xs) if x == lo)
        facets, normals, offsets = zip(*sorted([(top, (1,), hi), (bottom, (-1,), -lo)]))
        # a facet of one point x != 0 has d = |x| and D = (sign x)
        duals = tuple(
            (abs(x), ((1 if x > 0 else -1,),)) if len(idx) == 1 and (x := xs[idx[0]]) else None
            for idx in facets
        )
        return FaceLattice.walked(facets, offsets, duals), normals
    # each known facet as (points, normal, offset, dual basis or None until popped)
    found: dict[int, tuple[tuple[int, ...], Vector, int, DualBasis | None]] = {}
    registered: set[int] = set()  # ridges of just one known facet of n points
    closed: set[int] = set()
    # each pending facet holds the arguments of its exchange, its given
    # (dual, products) pair, or None for a fresh elimination
    todo: list[tuple[int, tuple, tuple | None]] = []

    def add(mask: int, facet: tuple, step: tuple | None) -> None:
        found[mask] = facet
        if len(facet[0]) == n:
            for i in facet[0]:
                ridge = mask & ~(1 << i)
                if ridge in registered:
                    registered.remove(ridge)
                    closed.add(ridge)
                else:
                    registered.add(ridge)
        todo.append((mask, facet, step))

    first, dual, products = seed or _seed(verts, n)
    add(sum(1 << i for i in first[0]), (*first, None), None if dual is None else (dual, products))
    while todo:
        mask, (idx, u, c, _), step = todo.pop()
        if len(idx) == n and c:
            open_ridges = [
                (r, ridge) for r, i in enumerate(idx) if (ridge := mask & ~(1 << i)) not in closed
            ]
            if step is None:
                dual = dual_basis(list(zip(*(verts[i] for i in idx))))
                if open_ridges:
                    products = tuple(tuple(_dot(row, vert) for vert in verts) for row in dual[1])
            elif len(step) == 2:
                dual, products = step
            else:
                (d, parent_rows), parent_products, r, w, pos = step
                y = [row[w] for row in parent_products]
                dual = (abs(y[r]), _exchange(parent_rows, y, r, pos, d))
                if open_ridges:
                    products = _exchange(parent_products, y, r, pos, d)
            found[mask] = idx, u, c, dual
            if not open_ridges:
                continue
            d, rows = dual
            heights = [c - c * t // d for t in map(sum, zip(*products))]
            ridges = (
                (ridge, [-x for x in rows[r]], 0, [-x for x in products[r]], r)
                for r, ridge in open_ridges
            )
        else:
            dual = None
            heights = [c - _dot(u, vert) for vert in verts]
            ridges = (
                (ridge, v, delta, [_dot(v, vert) - delta for vert in verts], None)
                for ridge, v, delta in _lifted_ridges(verts, n, idx, u, walks)
                if ridge not in closed
            )
        below = [(w, a) for w, a in enumerate(heights) if not mask >> w & 1]
        for ridge, v, delta, tilts, r in ridges:
            closed.add(ridge)
            normal, offset, touching = _widest_pivot(u, c, v, delta, below, tilts)
            new_mask = ridge
            for w in touching:
                new_mask |= 1 << w
            if new_mask not in found:
                new_idx = tuple(sorted([w for w in idx if ridge >> w & 1] + touching))
                step = None
                if dual is not None and len(touching) == 1 and offset:
                    w = touching[0]
                    step = (dual, products, r, w, new_idx.index(w))
                add(new_mask, (new_idx, normal, offset, None), step)
    # by points alone: comparing int tuples takes half the time of whole records
    known = sorted(found.values(), key=itemgetter(0))
    found.clear()  # the masks are not returned: free them before the record is built
    facets, normals, offsets, duals = (tuple(map(itemgetter(k), known)) for k in range(4))
    return FaceLattice.walked(facets, offsets, duals), normals


def _free_sum_hull(verts: Sequence[Vector], seed: Seed, walks: Walks) -> FaceLattice | None:
    """The hull of a free sum, joined from its factors' hulls; None unless it
    splits into factors of smooth Fano shape.

    With ``d = 1`` the seed's facet ``B`` is a lattice basis and column
    ``w`` of ``P = B^-1 W`` is vertex ``w`` in that basis: its nonzero rows
    are the facet points of ``w``'s fundamental circuit.  Joining each
    facet point to every vertex whose circuit holds it (``_union``) gives
    the components of the vertices' linear matroid (Oxley, "Matroid
    theory"), and in the basis ``B`` the points are the free sum of the
    components, each an integral point set in the coordinates of its own
    facet points, read off ``P``.  Each factor is walked from its share of
    the seed: its standard basis on the hyperplane ``x_1 + ... + x_k = 1``
    (``u.B = (c, ..., c)`` is primitive, so ``c = 1`` unless the origin
    is outside), with dual basis ``(1, I)`` and its own coordinates as
    products, so no factor runs a search or an elimination.  A factor of
    two or more points holds a point off the seed's facet, as the only
    facet points in no other point's circuit are coloops, so it is
    full-dimensional and its walk ends.  Each factor's points are ordered
    by their coordinates, largest first, which keeps its share of the seed,
    ``e_1, ..., e_k``, in index order; factors with the same coordinates,
    such as the hexagons of hexagon^k, are walked once and share that
    record, so hexagon^k takes 5 pivots.

    When every factor facet is unimodular (it has an inverse, so ``n_i``
    points and ``d = 1``) at offset 1, the origin is interior to every
    factor, and every factor point lies on a facet: a lattice point of
    the hull lies in a unimodular facet cone at height at most 1, so it
    is a point of that facet or the origin, which is a loop.  Then the
    facets are the joins of one facet per factor (Batyrev, "On the
    classification of smooth projective toric varieties", 1991), each of
    ``n`` points at offset 1, unimodular, and every point lies on one; the
    shape conditions and validation read that off a record with factors
    instead of scanning its facets.  A join's points are the sorted union
    of its factor facets' points.  Only the facets are formed here, in the
    product order of the factors' facets, each factor's in its record's
    order: one sort of ``n`` points per facet, and no normal.  Their
    inverses are formed when first read, in the same order
    (``_joined_inverses``): a join's rows are its factor facets' inverse
    rows, each lifted once per factor facet to the input's coordinates as
    a combination of the rows of ``D`` (``_lift``).  So the record equals
    the whole walk's as a set (``FaceLattice``).  One component,
    ``d != 1``, ``c = -1``, a one-vertex component (a loop or a coloop)
    and any factor that fails those conditions give None, so that the
    whole walk, and its failure details, decide every input that is not a
    free sum of smooth Fano shapes; those conditions are read once per
    distinct walk.  The factor walks are read from and kept in ``walks``,
    the hull's table (``FanoPolytope._hull``).  The record keeps the
    factors (``Factor``: points, coordinates, the factor walk's record and
    the rows of ``D`` that lift its functionals), for the factors' face
    fans and the joined inverses.  The joins and their inverses are keyed
    by input index, so the order of a factor's points does not reach them.
    """
    (idx, _, c), dual, products = seed
    if dual is None or dual[0] != 1 or c != 1:
        return None
    m = len(verts)
    root = list(range(m))
    for i, row in zip(idx, products):
        for w in compress(range(m), row):
            _union(root, i, w)
    members: dict[int, list[int]] = {}
    for w in range(m):
        members.setdefault(_find(root, w), []).append(w)
    if len(members) == 1 or any(len(pts) == 1 for pts in members.values()):
        return None
    positions: dict[int, list[int]] = {}
    for k, i in enumerate(idx):
        positions.setdefault(_find(root, i), []).append(k)
    rows = dual[1]
    factors = []
    for r, pts in members.items():
        ks = positions[r]
        n = len(ks)
        vertices, points = zip(
            *sorted(((tuple(products[k][w] for k in ks), w) for w in pts), reverse=True)
        )
        walk = walks.get(vertices)
        if walk is None:
            where = {w: j for j, w in enumerate(points)}
            first = (tuple(where[idx[k]] for k in ks), (1,) * n, 1)
            share = (first, (1, identity_matrix(n)), tuple(zip(*vertices)))
            walk = walks[vertices] = _pivot_walk(vertices, n, walks, share)
            if None in walk[0].inverses or set(walk[0].offsets) != {1}:
                return None
        factors.append(Factor(points, n, vertices, walk[0], tuple(rows[k] for k in ks)))
    # each factor facet's points ascending: a join is then a merge of sorted runs
    parts = [
        [tuple(sorted(map(f.points.__getitem__, pts))) for pts in f.lattice.facets]
        for f in factors
    ]
    facets = tuple(map(tuple, _joins(parts)))
    return FaceLattice(facets, (1,) * len(facets), tuple(factors))


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    detail: str = ""


def _condition(name: str, failure: str) -> ConditionResult:
    """A condition that passed iff its ``failure`` detail is empty."""
    return ConditionResult(name, not failure, failure)


_NOT_FULL = "not evaluated: polytope is not full-dimensional"


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


@dataclass(frozen=True)
class FanoPolytope:
    """A candidate Fano polytope: ordered vertex list in its input order.

    Construction only enforces structural sanity (``int`` coordinates,
    consistent lengths); anything else, ``bool``, ``float`` and
    ``Fraction`` included, raises TypeError instead of being truncated.
    The geometric conditions are checked by ``validate_smooth_fano`` so
    that bad input files produce diagnostics instead of exceptions.
    Instances are immutable and hashable.
    """

    dim: int
    vertices: tuple[Vector, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if type(self.dim) is not int:
            raise TypeError(
                f"dimension must be int, got {self.dim!r} of type {type(self.dim).__name__}"
            )
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
    def _hull(self) -> FaceLattice:
        """The hull's record (``FaceLattice``), by exact ridge pivoting;
        NotFanoShapeError, quoting the affine rank, on a flat vertex set.

        The first facet is found once (``_seed``); a free sum of smooth
        Fano shapes is joined from its factors' walks
        (``_free_sum_hull``), and every other input is walked whole from
        that seed.  All walks of the call share one table keyed by their
        points, made here and dropped on return, so a point list is walked
        at most once per hull and no walk is shared between polytopes.
        ``_pivot_walk`` gives the costs.
        """
        verts, n, walks = self.vertices, self.dim, {}
        seed = _seed(verts, n)
        return _free_sum_hull(verts, seed, walks) or _pivot_walk(verts, n, walks, seed)[0]

    @cached_property
    def _shape(self) -> tuple[ConditionResult, ...]:
        """The four shape conditions, in report order: full_dimensional,
        origin_interior, simplicial and vertices_extremal.

        The one place they are decided: ``validate_smooth_fano`` quotes
        them and ``face_lattice`` raises on the first that fails.  All
        four read the facet walk, with no elimination of their own: the
        first facet's search ends with the affine rank on a flat vertex
        set (``_first_facet``), and then the last three are not evaluated.
        A record joined from factors passes the last three without a scan
        of its facets: each has ``n`` points at offset 1, and every point
        lies on one (``_free_sum_hull``).
        """
        n, verts = self.dim, self.vertices
        try:
            hull = self._hull
        except NotFanoShapeError as flat:
            return (
                _condition("full_dimensional", str(flat)),
                *(
                    _condition(name, _NOT_FULL)
                    for name in ("origin_interior", "simplicial", "vertices_extremal")
                ),
            )
        if hull.factors:
            low, witness, loose = 1, None, []
        else:
            low = min(hull.offsets)
            witness = min(
                (_least_basis(pts, verts) for pts in hull.facets if len(pts) > n), default=None
            )
            loose = sorted(set(range(len(verts))).difference(*hull.facets))
        return (
            _condition("full_dimensional", ""),
            _condition(
                "origin_interior", "" if low > 0 else f"supporting hyperplane at offset {low}"
            ),
            _condition(
                "simplicial",
                ""
                if witness is None
                else f"facet hyperplane with extra vertices, e.g. {witness[0]} + {witness[1]}",
            ),
            _condition(
                "vertices_extremal",
                f"points inside the hull: {[verts[i] for i in loose]}" if loose else "",
            ),
        )

    @cached_property
    def face_lattice(self) -> FaceLattice:
        """The hull's record (``_hull``) itself, once the shape conditions hold.

        Raises NotFanoShapeError with the detail of the first failed shape
        condition (``_shape``): non-simplicial face data would be silently
        wrong downstream.  Unimodularity is not required: a facet that is
        not unimodular has None as its inverse.
        """
        failed = next((c for c in self._shape if not c.passed), None)
        if failed is not None:
            raise NotFanoShapeError(failed.detail)
        return self._hull

    # -- canonical form ----------------------------------------------------

    def normal_form(self) -> tuple[Vector, ...]:
        """Canonical vertex matrix under lattice maps and vertex reorderings.

        Two validated polytopes have equal normal forms exactly when one
        is the image of the other under a unimodular map composed with a
        permutation of the vertices.  Every facet basis is mapped to the
        standard basis (in every ordering) and the lexicographically
        least sorted vertex matrix over all those coordinates wins.  Each
        facet's inverse is the one ``face_lattice`` carries.

        Facets that an automorphism of the polytope maps onto each other
        give the same keys, so only one of them is searched.  When facet
        F's key under some order equals the best key so far and the best
        came from another facet F_b, then ``A_F V = A_b V`` as sets, so
        ``A_F^-1 A_b`` is a lattice automorphism taking F_b onto F: it is
        read off as a vertex permutation by matching the two keys row by
        row.  F stops there, and the automorphism merges the classes of
        every facet and its image (union-find, each class rooted at its
        least index; the image is found by its points, in a table of the
        facets built at the first tie); a facet whose class already holds
        an earlier facet is skipped.  A facet that sets the best key never
        stops on its own ties (those are its stabilizer), so it is searched
        in full.
        The cost is ``dim!`` sorts of the vertex images for each facet
        searched in full; a facet in the orbit of an earlier one takes
        the sorts up to its first tie and then one pass over the facets,
        which merges at least two classes.  Raises NotFanoShapeError
        unless the hull is simplicial with the origin inside, and
        ValueError if a facet is not unimodular.
        """
        facets, inverses = self.face_lattice.facets, self.face_lattice.inverses
        verts = self.vertices
        # itemgetter of one index returns a scalar, so dimension 1 keeps whole rows
        orders = (
            [itemgetter(*perm) for perm in permutations(range(self.dim))]
            if self.dim > 1
            else [tuple]
        )
        best = None
        root = None  # set up at the first tie between two facets
        for k, binv in enumerate(inverses):
            if binv is None:
                raise ValueError("matrix is not unimodular")
            if root is not None and _find(root, k) != k:
                continue
            images = [mat_vec(binv, v) for v in verts]
            for order in orders:
                key = sorted(map(order, images))
                if best is None or key < best:
                    best, best_k, best_images, best_order = key, k, images, order
                elif key == best and best_k != k:
                    where = dict(zip(map(order, images), range(len(verts))))
                    # vertex j and vertex perm[j] have the same row in the two keys
                    perm = [where[row] for row in map(best_order, best_images)]
                    if root is None:
                        root = list(range(len(facets)))
                        place = {f: i for i, f in enumerate(facets)}
                    for i, f in enumerate(facets):
                        _union(root, i, place[tuple(sorted(map(perm.__getitem__, f)))])
                    break
        if best is None:
            raise InternalInconsistencyError("a validated polytope has no facets")
        return tuple(best)


def _find(root: list[int], i: int) -> int:
    """The least facet index in the class of ``i``, halving the path to it."""
    while root[i] != i:
        root[i] = i = root[root[i]]
    return i


def _union(root: list[int], a: int, b: int) -> None:
    a, b = _find(root, a), _find(root, b)
    if a != b:
        root[max(a, b)] = min(a, b)


def _least_basis(
    pts: tuple[int, ...], verts: Sequence[Vector]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(least affinely independent spanning subset of ``pts``, the other points).

    Affine independence makes a matroid on the points, so taking each
    point in index order when it raises the affine rank gives the
    lexicographically least basis: those are the pivot columns of one
    echelon form of the differences from the first point, as columns.
    The least of these over the facets with extra points is the least
    ``n``-subset spanning such a facet, which the report quotes as its
    witness against simpliciality.
    """
    base = verts[pts[0]]
    _, pivots = reduced_echelon(
        [[verts[i][k] - x for i in pts[1:]] for k, x in enumerate(base)]
    )
    basis = (pts[0], *(pts[1 + c] for c in pivots))
    return basis, tuple(i for i in pts if i not in basis)


def validate_smooth_fano(p: FanoPolytope) -> ValidationReport:
    """Check every smooth Fano polytope condition and report all failures.

    Conditions, in evaluation order: distinct vertices, primitive
    vertices, full dimension, origin strictly interior, simplicial hull,
    every input point a hull vertex, unimodular facets.  The four in the
    middle are the polytope's shape conditions, decided once per
    polytope (``FanoPolytope._shape``) and quoted here.  Unimodular
    facets sit on lattice-distance-1 hyperplanes, which already forces
    the origin to be the only interior lattice point, so that part of the
    Fano definition needs no lattice-point enumeration.  A facet of ``n``
    points is unimodular iff it has an inverse, that is, iff the walk's
    dual basis has ``d = |det| = 1``; one through the origin (det 0) has
    none.  So no determinant is computed here.  Every facet of a record
    joined from factors is unimodular (``_free_sum_hull``), so its
    inverses are not read.
    """
    verts, n = p.vertices, p.dim
    dup = sorted({v for v in verts if verts.count(v) > 1})
    bad_prim = [v for v in verts if content(v) != 1]
    shape = p._shape
    if shape[0].passed:
        hull = p._hull
        # a facet of n points through the origin has det 0 and no inverse
        bad_facets = [] if hull.factors else [
            pts
            for pts, inverse in zip(hull.facets, hull.inverses)
            if len(pts) == n and inverse is None
        ]
        unimodular = f"non-unimodular facets: {bad_facets}" if bad_facets else ""
    else:
        unimodular = _NOT_FULL
    return ValidationReport(
        p.name,
        (
            _condition("vertices_distinct", f"repeated vertices: {dup}" if dup else ""),
            _condition(
                "vertices_primitive", f"non-primitive vertices: {bad_prim}" if bad_prim else ""
            ),
            *shape,
            _condition("facets_unimodular", unimodular),
        ),
    )


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
