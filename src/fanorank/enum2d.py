"""Exhaustive enumeration of smooth Fano polygons from a coordinate box.

Serves as a ground-truth oracle at desk scale: every smooth Fano polygon
whose vertices lie in the box is found, survivors are deduplicated by
canonical form, and the result is the classification of smooth toric
del Pezzo surfaces when the box is large enough (radius 1 already is).

The candidates come from a depth-first walk over rings of box vectors
(``_rings``).  A smooth complete fan in the plane is a counterclockwise
cycle ``v_0, ..., v_{k-1}`` with ``det(v_i, v_{i+1}) = 1``; consecutive
determinants 1 force ``v_{i+1} = a_i v_i - v_{i-1}`` for an integer
``a_i``, and the cycle closes after one full turn iff
``sum a_i = 3k - 12`` (Oda, *Convex Bodies and Algebraic Geometry*;
Fulton, *Introduction to Toric Varieties*).  The polygon
on the rays turns by ``2 - a_i`` at ``v_i``, so it is strictly convex,
hence Fano with every ray a vertex, iff every ``a_i <= 1``.  The walk
therefore keeps three conditions: determinant 1 between neighbours, a
turn with ``a_i <= 1``, and the closing sum.  Since ``a_i <= 1`` gives
``3k - 12 <= k``, no ring has more than 6 vertices, which bounds the
depth.  Each candidate is still re-checked with the general validator
before being counted, so the walk only buys speed, never trust.
"""

from __future__ import annotations

import math

from .lattice import Vector
from .polytope import FanoPolytope, validate_smooth_fano


def primitive_vectors_in_box(box_radius: int) -> tuple[Vector, ...]:
    """All primitive integer vectors with both coordinates in [-B, B], sorted."""
    if box_radius < 1:
        raise ValueError("box radius must be at least 1")
    out = []
    for x in range(-box_radius, box_radius + 1):
        for y in range(-box_radius, box_radius + 1):
            if math.gcd(x, y) == 1:
                out.append((x, y))
    return tuple(sorted(out))


def _rings(box_radius: int):
    """Counterclockwise smooth Fano rings on box vectors, each exactly once.

    A ring is walked from its least vertex ``v0`` (in tuple order), so
    every later vertex must be greater than ``v0``.  A step
    ``v_{i+1} = a v_i - v_{i-1}`` has ``a <= 1`` for convexity and
    ``a >= -2B``, below which no coordinate of ``v_{i+1}`` stays in the
    box.
    """
    vectors = primitive_vectors_in_box(box_radius)
    in_box = set(vectors)

    def walk(ring: list[Vector], total: int):
        prev, cur = ring[-2], ring[-1]
        v0 = ring[0]
        for a in range(1, -2 * box_radius - 1, -1):
            nxt = (a * cur[0] - prev[0], a * cur[1] - prev[1])
            if nxt == v0:
                # ring[1] + ring[-1] is an integer multiple a0 of the primitive v0.
                s = (ring[1][0] + cur[0], ring[1][1] + cur[1])
                a0 = (s[0] * v0[0] + s[1] * v0[1]) // (v0[0] ** 2 + v0[1] ** 2)
                if a0 <= 1 and total + a + a0 == 3 * len(ring) - 12:
                    yield tuple(ring)
            elif len(ring) < 6 and nxt > v0 and nxt in in_box and nxt not in ring:
                yield from walk(ring + [nxt], total + a)

    for v0 in vectors:
        for v1 in vectors:
            if v1 > v0 and v0[0] * v1[1] - v0[1] * v1[0] == 1:
                yield from walk([v0, v1], 0)


def enumerate_2d(box_radius: int = 1) -> tuple[FanoPolytope, ...]:
    """Distinct smooth Fano polygons on primitive vectors from the box.

    Validates every ring from ``_rings``, deduplicates by normal form,
    and returns canonical representatives ordered by (vertex count,
    normal form).  Radius 1 yields the five toric del Pezzo classes;
    larger boxes must reproduce the same list.
    """
    by_form: dict[tuple[Vector, ...], None] = {}
    for ring in _rings(box_radius):
        candidate = FanoPolytope(2, ring)
        if not validate_smooth_fano(candidate).passed:
            continue
        by_form.setdefault(candidate.normal_form())
    forms = sorted(by_form, key=lambda f: (len(f), f))
    out = []
    seen_counts: dict[int, int] = {}
    for form in forms:
        count = len(form)
        seen_counts[count] = seen_counts.get(count, 0) + 1
        suffix = chr(ord("a") + seen_counts[count] - 1)
        dup = sum(1 for f in forms if len(f) == count) > 1
        name = f"delpezzo_{count}v" + (f"_{suffix}" if dup else "")
        out.append(FanoPolytope(2, form, name))
    return tuple(out)
