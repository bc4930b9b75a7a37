"""Primitive collections, primitive relations, and the toric Mori toolkit.

A primitive collection is a minimal non-face of the fan: a set of rays
spanning no cone, every proper subset of which does.  Equivalently it is
a minimal transversal of the complements of the maximal cones: it meets
every complement, and each member has a critical cone, one that holds
the set without that member.  The collections are enumerated as such by
the MMCS search (Murakami & Uno, 2014, on the problem studied by Eiter &
Gottlob, 1995), which grows a set by branching on the complement of a
cone still holding it, on rays relabelled so that the vertex order does
not set its work, and never walks the faces.  Writing the sum of its
generators in the minimal cone containing it produces the primitive
relation, an integer relation among ray generators and hence a curve
class (numerical classes of curves are exactly the relations among the
generators).  Degree here always means anticanonical degree: the sum of
the relation's coefficients.  Collections summing to zero play a special
role, corresponding to families of minimal rational curves; we call
their records minimal components and grade them by codegree
``dim + 1 - degree``.  The proof tools around them are Reid's cone
checks for a degree-1 relation, the count of collections extending a
cone by one ray, and the lift of zero-sum collections out of a star
quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

from .fan import Fan, NotAConeError
from .lattice import InternalInconsistencyError


class NotCertifiedExtremalError(ValueError):
    """The relation has not been certified extremal (degree is not 1)."""


@dataclass(frozen=True)
class PrimitiveRelation:
    """The relation sum(collection) = sum(coeff * generator) over the rhs cone.

    ``degree`` is the collection size minus the sum of the right-hand
    coefficients; on a Fano fan it is always at least 1.
    """

    collection: tuple[int, ...]
    rhs: tuple[tuple[int, int], ...]
    degree: int


@dataclass(frozen=True)
class MinimalComponent:
    """A zero-sum primitive collection with its degree and codegree."""

    collection: tuple[int, ...]
    degree: int
    codegree: int


@dataclass(frozen=True)
class ZeroSumLift:
    """Result of lifting a zero-sum collection out of a star quotient.

    ``lifted`` holds original generator indices for the collection minus
    ``dropped``; ``forms_cone`` records whether they span a cone together
    with the quotient center, as the divisor-intersection argument
    predicts.  A False value is a diagnostic worth investigating.
    """

    collection: tuple[int, ...]
    dropped: int
    lifted: tuple[int, ...]
    forms_cone: bool


def primitive_collections(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """All minimal non-faces, by increasing size then lexicographically.

    A set of rays spans no cone iff it meets the complement of every
    maximal cone, so the primitive collections are the minimal
    transversals of the facet complements.  They are enumerated by MMCS
    (Murakami & Uno, "Efficient algorithms for dualizing large-scale
    hypergraphs", 2014; the problem is Eiter & Gottlob's, "Identifying
    the minimal transversals of a hypergraph and related problems",
    1995), which never walks the faces.  A search node holds a set
    ``S``, ``cone_mask(S)`` (the cones still holding ``S``), one drop
    mask ``cone_mask(S - x)`` per member, and a bitset of candidate
    rays.  An empty mask means ``S`` is a collection.  Otherwise the
    search branches on the complement of the first cone in the mask:
    the ``i``-th candidate ``e`` outside that cone gives the child
    ``S + e``, whose candidates are the old ones minus the complement
    plus the ``i - 1`` rays of it tried before ``e``.  A child is kept
    only while every member stays critical, that is, some cone holds
    ``S + e - x`` but not ``S + e``, one AND per member on the drop
    masks.  Each collection is reached exactly once.  The ground set is
    the rays lying in some cone, so a ray in no cone is never reported.
    Rays are relabelled by ``_greedy_order`` and tried from the last
    label down, and the cones are ranked by their relabelled ray bitsets,
    largest first, so the vertex order does not set the work: hexagon^5
    takes 7,821 nodes in textbook coordinates and in seeded images, where
    the input order took up to 16,852.
    """
    order = _greedy_order(fan.incidence)
    cone_rays = _transpose([fan.incidence[v] for v in order], len(fan.max_cones))
    cone_rays.sort(reverse=True)
    inc = _transpose(cone_rays, len(order))
    found: list[tuple[int, ...]] = []
    stack = [((), fan.full_mask, (), (1 << len(order)) - 1)] if fan.full_mask else []
    while stack:
        s, mask, drops, cand = stack.pop()
        if not mask:
            found.append(tuple(sorted(map(order.__getitem__, s))))
            continue
        branch = cand & ~cone_rays[(mask & -mask).bit_length() - 1]
        cand ^= branch
        while branch:
            e = branch.bit_length() - 1
            low = 1 << e
            branch ^= low
            inc_e = inc[e]
            new = mask & inc_e
            child_drops = tuple(map(inc_e.__and__, drops))
            if new not in child_drops:
                stack.append((s + (e,), new, (*child_drops, mask), cand))
            cand |= low
    found.sort(key=lambda s: (len(s), s))
    return tuple(found)


def _greedy_order(inc: Sequence[int]) -> list[int]:
    """The rays lying in some cone, each next one the unused ray sharing the
    most cones with the one before (the lowest index on a tie): O(m^2) ANDs.
    """
    left = [v for v, mask in enumerate(inc) if mask]
    order = left[:1]
    del left[:1]
    while left:
        last = inc[order[-1]]
        shared = [(last & inc[v]).bit_count() for v in left]
        order.append(left.pop(shared.index(max(shared))))
    return order


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """Bit ``j`` of entry ``i`` is bit ``i`` of ``rows[j]``, for ``i < width``:
    the bit matrix transposed through the rows' binary numerals."""
    columns = zip(*map(format, reversed(rows), repeat(f"0{width}b")))
    return list(map(int, map("".join, columns), repeat(2)))[::-1] if rows else [0] * width


def _generator_sum(fan: Fan, idx: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(fan.generators[i][k] for i in idx) for k in range(fan.dim))


def primitive_relation(fan: Fan, pc: Sequence[int]) -> PrimitiveRelation:
    """Primitive relation of a collection: locate its generator sum exactly."""
    idx = tuple(sorted(pc))
    loc = fan.minimal_cone_containing(_generator_sum(fan, idx))
    if set(loc.support) & set(idx):
        raise InternalInconsistencyError(
            f"collection {idx} meets its own relation cone {loc.support}"
        )
    rhs = tuple(zip(loc.support, loc.coefficients))
    degree = len(idx) - sum(loc.coefficients)
    return PrimitiveRelation(idx, rhs, degree)


def minimal_components(fan: Fan) -> tuple[MinimalComponent, ...]:
    """Primitive collections with zero generator sum, graded by codegree."""
    out = []
    for pc in primitive_collections(fan):
        if not any(_generator_sum(fan, pc)):
            k = len(pc)
            out.append(MinimalComponent(pc, k, fan.dim + 1 - k))
    return tuple(out)


def verify_reid_cones(
    fan: Fan, rel: PrimitiveRelation, *, require_degree_one: bool = True
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Check the cone structure an extremal relation forces near its collection.

    For every cone extending the relation's right-hand side by rays
    disjoint from both sides, dropping any one collection member and
    adjoining the extension must again give a cone.  Returns the list of
    (dropped index, extension) pairs that fail; on valid input it is
    empty.  By default the relation must carry the degree-1 extremality
    certificate; pass ``require_degree_one=False`` only for relations
    whose extremality is known some other way.  Only the faces
    containing the right-hand side are walked, on the incidence masks.
    """
    if require_degree_one and rel.degree != 1:
        raise NotCertifiedExtremalError(
            f"relation of degree {rel.degree} is not certified extremal"
        )
    lhs = rel.collection
    rhs = tuple(i for i, _ in rel.rhs)
    drops = [(i, fan.cone_mask(x for x in lhs if x != i)) for i in lhs]
    outside = [w for w in range(len(fan.generators)) if w not in lhs and w not in rhs]
    return tuple(
        (i, z)
        for z, z_mask in fan.faces_over(fan.cone_mask(rhs), outside)
        for i, drop in drops
        if not drop & z_mask
    )


def count_pc_extensions(fan: Fan, cone_indices: Iterable[int]) -> int:
    """Number of primitive collections equal to the cone plus one extra ray."""
    cone = tuple(sorted(set(cone_indices)))
    if not fan.is_cone(cone):
        raise NotAConeError(f"{cone} is not a cone of the fan")
    cone_mask = fan.cone_mask(cone)
    drops = [fan.cone_mask(x for x in cone if x != y) for y in cone]
    return sum(
        1
        for w, w_mask in enumerate(fan.incidence)
        if w not in cone
        and not cone_mask & w_mask
        and all(d & w_mask for d in drops)
    )


def picard_rank(fan: Fan) -> int:
    """Number of rays minus the dimension."""
    return len(fan.generators) - fan.dim


def lift_zero_sum_collections(
    fan: Fan, sigma: Iterable[int]
) -> tuple[ZeroSumLift, ...]:
    """Find zero-sum collections in the star quotient along ``sigma`` and lift them.

    Each quotient collection of size t+1 should, after dropping one ray
    and lifting the remaining t to their preimages, span a cone together
    with ``sigma``.  Members are dropped in order and the first drop that
    gives a cone is kept; when none does, the lift dropping the first
    member is reported with ``forms_cone`` False.
    """
    sig = tuple(sorted(set(sigma)))
    qfan, lift = fan.star_quotient(sig)
    results = []
    for comp in minimal_components(qfan):
        pc = comp.collection
        candidates = [
            (dropped, tuple(sorted(lift.ray_lift[r] for r in pc if r != dropped)))
            for dropped in pc
        ]
        found = next((c for c in candidates if fan.is_cone(sig + c[1])), None)
        dropped, lifted = found or candidates[0]
        results.append(ZeroSumLift(pc, dropped, lifted, found is not None))
    return tuple(results)
