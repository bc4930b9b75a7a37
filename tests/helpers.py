"""Independent oracles and randomized transforms used across the test suite.

Everything here is deliberately written against the definitions, not
against the library internals, so that the main code paths are checked
by a second route: a face set built as frozensets from the maximal cones,
brute-force subset scans over it for primitive collections, extension
counts and Reid cone checks, a depth-first walk over every face for
primitive collections where the subset scan is too slow, an
angular-sort hull for 2D facets, a scan of every ``n``-subset's
hyperplane for the facets of any hull, a scan of every facet basis in
every order for the normal form, the link and cones of a star read off
the maximal cones, with a rank test that a star quotient's rays are a
linear image of the link, Gaussian elimination over ``Fraction`` for
ranks, determinants and inverses, a scan of every cone solved over
``Fraction`` for point location, and elementary-matrix products for
random unimodular maps.  Nothing here reads the library's face data
(its incidence masks, ``face_set`` or ``all_faces``); only
``fan.max_cones`` and ``fan.generators``, from which the face walk
builds its own masks.  It also holds inputs: smooth Fano non-products, and
two point sets that are not simplicial and whose hulls nest walks deeply.
"""

from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import combinations, permutations
from math import gcd

from fanorank import FanoPolytope
from fanorank.lattice import mat_vec


# Smooth Fano 3- and 4-folds that are not products.
NON_PRODUCTS = {
    "P^3 blown up at a point": (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1))),
    "P(O+O(1)) over P^2": (3, ((1, 0, 0), (0, 1, 0), (-1, -1, 1), (0, 0, 1), (0, 0, -1))),
    "P(O+O(2)) over P^2": (3, ((1, 0, 0), (0, 1, 0), (-1, -1, 2), (0, 0, 1), (0, 0, -1))),
    "P(O+O+O(1)) over P^1": (3, ((1, 0, 0), (-1, 0, 1), (0, 1, 0), (0, 0, 1), (0, -1, -1))),
    "P(O+O(1)) over P^3": (
        4,
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, 1), (0, 0, 0, 1), (0, 0, 0, -1)),
    ),
}

# A free sum of three point sets in dimension 8 that fails vertices_distinct
# (B holds (0, 0, 1) twice), origin_interior and simplicial.
SIXTEEN_POINTS = (
    8,
    tuple(a + (0,) * 5 for a in ((1, -1, 1), (-1, -1, 0), (-1, -1, -1), (0, -1, -1), (-1, -1, 1)))
    + tuple(
        (0,) * 3 + b + (0,) * 2
        for b in ((1, 0, -1), (0, 0, -1), (0, 0, 1), (0, 0, 1), (1, 1, -1), (-1, -1, 0))
    )
    + tuple((0,) * 6 + c for c in ((1, 1), (-1, 1), (1, -1), (0, -1), (-1, -1))),
)


def twisted_lift(k):
    """hexagon^k in dimension ``2k + 1``: each vertex ``v`` as ``(v, 0)``, but
    the first as ``(v, 1)``, and the two points ``(0, ..., 0, +-1)``.  It
    is not simplicial, and its facets hold non-simplicial ridges."""
    base = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    n = 2 * k
    # the vertices of the free sum hexagon^k, factor by factor
    verts = [(0,) * (2 * j) + v + (0,) * (n - 2 * j - 2) + (0,) for j in range(k) for v in base]
    verts[0] = verts[0][:n] + (1,)
    verts += [(0,) * n + (1,), (0,) * n + (-1,)]
    return FanoPolytope(n + 1, tuple(verts), f"twisted lift of hexagon^{k}")


@cache
def brute_force_faces(fan):
    """Every subset of every maximal cone as a frozenset, the empty face included."""
    faces = {frozenset()}
    for cone in fan.max_cones:
        for size in range(1, len(cone) + 1):
            for sub in combinations(cone, size):
                faces.add(frozenset(sub))
    return frozenset(faces)


def brute_force_primitive_collections(fan):
    """Scan vertex subsets against the minimal-non-face definition.

    Sizes stop one above the largest cone: a larger set has a non-face
    proper subset of that size, so it cannot be minimal.
    """
    m = len(fan.generators)
    faces = brute_force_faces(fan)
    top = max(map(len, faces)) + 1
    out = []
    for size in range(2, top + 1):
        for subset in combinations(range(m), size):
            fs = frozenset(subset)
            if fs in faces:
                continue
            if all(fs - {x} in faces for x in subset):
                out.append(subset)
    return tuple(sorted(out, key=lambda s: (len(s), s)))


def face_walk_primitive_collections(fan):
    """Minimal non-faces by a depth-first walk over every face.

    The walk the library used before its transversal search, on facet
    masks built here from ``fan.max_cones``.  A face ``F`` is extended
    by each ray ``j > max(F)``: when ``F + j`` still spans a cone the
    walk descends into it, and otherwise ``F + j`` is a primitive
    collection iff every ``(F - x) + j`` spans a cone.  Each stack frame
    carries, for every member ``x`` of ``F``, the mask of ``F - x``, so
    that test is one AND per member.  It costs a step per face, which
    stays affordable on the few-ray fans of dimension 12 and 13 that the
    subset scan cannot reach.
    """
    inc = [0] * len(fan.generators)
    for c, cone in enumerate(fan.max_cones):
        for v in cone:
            inc[v] |= 1 << c
    m = len(inc)
    full = (1 << len(fan.max_cones)) - 1
    found = []
    stack = [((i,), mask, (full,)) for i, mask in enumerate(inc) if mask]
    while stack:
        face, mask, drops = stack.pop()
        for j in range(face[-1] + 1, m):
            inc_j = inc[j]
            new = mask & inc_j
            if new:
                stack.append((face + (j,), new, (*map(inc_j.__and__, drops), mask)))
            elif all(map(inc_j.__and__, drops)):
                found.append(face + (j,))
    found.sort(key=lambda s: (len(s), s))
    return tuple(found)


def brute_force_pc_extensions(fan, cone):
    """Rays w outside the cone for which cone + w is a minimal non-face."""
    faces = brute_force_faces(fan)
    cs = frozenset(cone)
    count = 0
    for w in range(len(fan.generators)):
        s = cs | {w}
        if w in cs or s in faces:
            continue
        if all(s - {x} in faces for x in cs):
            count += 1
    return count


def brute_force_reid_violations(fan, rel):
    """(dropped, extension) pairs failing the Reid cone check, faces by size then lex."""
    faces = brute_force_faces(fan)
    lhs = frozenset(rel.collection)
    rhs = frozenset(i for i, _ in rel.rhs)
    out = []
    for face in sorted(faces, key=lambda f: (len(f), sorted(f))):
        z = face - rhs
        if not rhs <= face or z & lhs:
            continue
        for i in rel.collection:
            if (lhs - {i}) | face not in faces:
                out.append((i, tuple(sorted(z))))
    return tuple(out)


def rays_and_two_cones(fan):
    """Every ray and every 2-cone of the fan, read off the maximal cones."""
    pairs = {pair for cone in fan.max_cones for pair in combinations(sorted(cone), 2)}
    return [(v,) for v in range(len(fan.generators))] + sorted(pairs)


def star_quotient_oracle(fan, sigma):
    """``(link, cones)`` of the star of ``sigma``, from the maximal cones alone.

    ``link`` lists, ascending, every generator ``w`` outside ``sigma`` for
    which ``sigma + w`` lies in a maximal cone, that is, spans a cone.
    ``cones`` holds each maximal cone containing ``sigma`` with ``sigma``
    taken out, sorted, in the fan's generator indices.
    """
    sig = frozenset(sigma)
    star = [frozenset(c) for c in fan.max_cones if sig <= frozenset(c)]
    link = tuple(sorted(frozenset().union(*star) - sig))
    cones = sorted({tuple(sorted(c - sig)) for c in star})
    return link, cones


def is_quotient_image(fan, sigma, link, images):
    """True iff one rational linear map kills ``sigma``'s generators and
    sends the generator of each ``link[i]`` to ``images[i]``.

    By ranks only: such a map exists iff putting the images beside their
    generators (zeros beside ``sigma``'s) leaves the rank unchanged.
    """
    q = len(images[0]) if images else 0
    gens = [fan.generators[i] for i in sigma] + [fan.generators[w] for w in link]
    beside = [(0,) * q] * len(sigma) + list(images)
    return rank_over_q([g + b for g, b in zip(gens, beside)]) == rank_over_q(gens)


def hull_edges_by_angle(vertices):
    """2D hull edges via exact angular sort; independent of the facet search."""

    def cmp(ia, ib):
        a, b = vertices[ia], vertices[ib]
        ha = 0 if a[1] > 0 or (a[1] == 0 and a[0] > 0) else 1
        hb = 0 if b[1] > 0 or (b[1] == 0 and b[0] > 0) else 1
        if ha != hb:
            return -1 if ha < hb else 1
        cross = a[0] * b[1] - a[1] * b[0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    order = sorted(range(len(vertices)), key=cmp_to_key(cmp))
    m = len(order)
    return tuple(
        sorted(tuple(sorted((order[i], order[(i + 1) % m]))) for i in range(m))
    )


def _eliminate_over_q(m):
    """(rank, product of pivots with the sign of the row swaps) over the rationals."""
    rows = [[Fraction(x) for x in r] for r in m]
    rank, det = 0, Fraction(1)
    for c in range(len(rows[0]) if rows else 0):
        sel = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if sel is None:
            det = Fraction(0)
            continue
        if sel != rank:
            rows[rank], rows[sel] = rows[sel], rows[rank]
            det = -det
        p = rows[rank]
        det *= p[c]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / p[c]
            rows[i] = [x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank, det


def rank_over_q(m):
    """Rank of an integer matrix by Gaussian elimination over ``Fraction``."""
    return _eliminate_over_q(m)[0]


def det_over_q(m):
    """Determinant of a square integer matrix by Gaussian elimination over ``Fraction``."""
    return int(_eliminate_over_q(m)[1])


def inverse_over_q(m):
    """Inverse of a square integer matrix by Gauss-Jordan elimination over ``Fraction``."""
    n = len(m)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for c in range(n):
        sel = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[sel] = rows[sel], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [row[n:] for row in rows]


@cache
def cone_inverses_over_q(fan):
    """The inverse of each maximal cone's matrix of generators, over ``Fraction``."""
    return tuple(
        inverse_over_q(list(zip(*(fan.generators[i] for i in cone)))) for cone in fan.max_cones
    )


def scan_minimal_cone(fan, point):
    """``(support, coefficients)`` of the minimal cone containing ``point``,
    by solving every maximal cone in order over ``Fraction``; None when no
    cone contains it.  Reads the generators and the maximal cones, never
    the inverses the fan carries.
    """
    if not any(point):
        return (), ()
    for cone, inverse in zip(fan.max_cones, cone_inverses_over_q(fan)):
        coords = []
        for row in inverse:
            x = sum(a * b for a, b in zip(row, point))
            if x < 0:
                break
            coords.append(x)
        else:
            support = tuple(i for i, x in zip(cone, coords) if x > 0)
            return support, tuple(x for x in coords if x > 0)
    return None


def brute_force_normal_form(p):
    """The normal form of a smooth Fano polytope by its definition: the
    least sorted vertex matrix over every facet basis mapped to the
    standard basis in every order.

    Takes the facets from ``brute_force_hull``, inverts each facet's
    matrix over ``Fraction`` and raises ValueError unless the inverse is
    integral; then tries all ``n!`` coordinate orders of the vertex
    images, ``facets * n!`` keys in all, each a tuple of row tuples.
    """
    n = p.dim
    best = None
    for on, _, _ in brute_force_hull(p.vertices, n)[0]:
        inv = inverse_over_q(list(zip(*(p.vertices[i] for i in on))))
        images = [[sum(x * y for x, y in zip(row, v)) for row in inv] for v in p.vertices]
        if any(x.denominator != 1 for w in images for x in w):
            raise ValueError(f"facet {on} is not unimodular")
        images = [tuple(int(x) for x in w) for w in images]
        for perm in permutations(range(n)):
            key = tuple(sorted(tuple(w[k] for k in perm) for w in images))
            if best is None or key < best:
                best = key
    return best


def brute_force_hull(verts, n):
    """Supporting hyperplanes through every affinely independent n-subset of the points.

    Returns (hyperplanes, evidence).  ``hyperplanes`` is the sorted list of
    distinct (indices of all points on it, primitive outward normal,
    offset) with every point on the side ``<= offset``.  ``evidence``
    lists, in subset order, each n-subset whose hyperplane holds other
    points too, as (subset, other points on it, offset): the witnesses
    against simpliciality.  Subsets grow depth first in index order, each
    carrying an integer basis of the vectors orthogonal to its differences
    from its first point; a point whose difference is orthogonal to that
    whole basis lies in the subset's affine hull and is skipped, and at
    size n the one vector left is the hyperplane's normal.  The cost is
    C(m, n) hyperplanes, each tested against every point.
    """
    m = len(verts)
    hyperplanes = set()
    evidence = []

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def grow(subset, complement):
        if len(subset) == n:
            g = gcd(*complement[0])
            u = tuple(x // g for x in complement[0])
            c = dot(u, verts[subset[0]])
            heights = [dot(u, v) - c for v in verts]
            if max(heights) > 0 and min(heights) < 0:
                return
            if max(heights) > 0:
                u, c = tuple(-x for x in u), -c
            on = tuple(i for i, h in enumerate(heights) if h == 0)
            hyperplanes.add((on, u, c))
            if len(on) > n:
                evidence.append((subset, tuple(i for i in on if i not in subset), c))
            return
        for i in range(subset[-1] + 1, m - n + len(subset) + 1):
            d = [a - b for a, b in zip(verts[i], verts[subset[0]])]
            dots = [dot(k, d) for k in complement]
            p = next((j for j, x in enumerate(dots) if x), None)
            if p is None:
                continue
            kp = complement[p]
            rest = [
                [dots[p] * a - x * b for a, b in zip(k, kp)]
                for j, (k, x) in enumerate(zip(complement, dots))
                if j != p
            ]
            grow(subset + (i,), [[a // gcd(*k) for a in k] for k in rest])

    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    for first in range(m - n + 1):
        grow((first,), unit)
    return sorted(hyperplanes), evidence


def random_unimodular(n, rng, steps=25):
    """Random product of elementary shears, swaps, and sign flips."""
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            q = rng.choice((-2, -1, 1, 2))
            for k in range(n):
                mat[i][k] += q * mat[j][k]
        elif kind == 1 and i != j:
            mat[i], mat[j] = mat[j], mat[i]
        elif kind == 2:
            mat[i] = [-x for x in mat[i]]
    return tuple(tuple(row) for row in mat)


def transformed_copy(p, umatrix, rng=None):
    """Apply a unimodular map to every vertex, optionally shuffling their order."""
    verts = [mat_vec(umatrix, v) for v in p.vertices]
    if rng is not None:
        rng.shuffle(verts)
    return FanoPolytope(p.dim, tuple(verts), p.name + "~")
