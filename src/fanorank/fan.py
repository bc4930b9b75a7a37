"""Complete smooth fans: cone membership, exact point location and star quotients.

The face fan of a validated Fano polytope has the polytope's vertices as
primitive ray generators and its facets as maximal cones.  A set of
rays spans a cone iff the AND of their facet-incidence bitmasks is
nonzero, so no face is ever built as a set.  Because every maximal cone
is unimodular, a point's coordinates in a cone are its product with the
cone's integer inverse, with no rounding anywhere, and locating it is a
walk across the ridges of negative coordinates.  A face fan takes
those inverses from the polytope's ``face_lattice`` when a query first
needs one, so face queries alone never have a joined record form them; a
fan built by hand inverts a cone the first time a query reaches it.  The star quotient
collapses a cone to the fan of the corresponding intersection of toric
divisors.  Its projection is a set of rows of one of those same cone
inverses, and each quotient ray lifts back to the one generator that
projects onto it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .lattice import (
    InternalInconsistencyError,
    Matrix,
    ShapeMismatchError,
    Vector,
    identity_matrix,
    int_vector,
    mat_vec,
    unimodular_inverse,
)
from .polytope import FaceLattice, FanoPolytope


class FanNotCompleteError(RuntimeError):
    """No maximal cone contains the queried point; the fan data is broken."""


class NotAConeError(ValueError):
    """The given index set does not span a cone of the fan."""


class BadIndexError(IndexError):
    """A ray index is out of range."""


class NotAFanError(ValueError):
    """Two cones overlap in more than a common face, so the data is not a fan."""


@dataclass(frozen=True)
class ConeLocation:
    """Minimal cone containing a point, with its positive coordinates.

    On a smooth fan the coordinates of a lattice point in a unimodular
    cone basis are integers, so ``coefficients`` never needs rationals.
    """

    support: tuple[int, ...]
    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class StarQuotientLift:
    """Lifting data attached to a star quotient fan.

    ``projection`` maps Z^n onto the quotient lattice, and ``ray_lift[i]``
    is the one original generator projecting onto quotient ray ``i``.
    """

    center: tuple[int, ...]
    projection: Matrix
    ray_lift: tuple[int, ...]


@dataclass(frozen=True)
class Fan:
    """A complete simplicial smooth fan given by ray generators and maximal cones."""

    dim: int
    generators: tuple[Vector, ...]
    max_cones: tuple[tuple[int, ...], ...]

    @classmethod
    def from_polytope(cls, p: FanoPolytope) -> "Fan":
        """Face fan of a polytope of smooth Fano shape: rays are vertices,
        cones are facets.

        Both come from ``p.face_lattice``, and its ``inverses`` are the
        cone inverses as they stand, read when a query first needs one
        (``_from_record``), so point location inverts no unimodular cone.
        A cone whose inverse is None (not unimodular) is left to the lazy
        path, which raises when a query reaches it.
        """
        return cls._from_record(p.dim, p.vertices, p.face_lattice)

    @classmethod
    def _from_record(cls, dim: int, generators: tuple[Vector, ...], lattice: FaceLattice) -> "Fan":
        """The face fan of a hull's record over ``generators``: no elimination
        and no validation.  The fan keeps the record and takes its inverses
        as they stand the first time a query reaches a cone (``_inverses``),
        so a fan that only answers face queries never has a joined record
        form its dual bases."""
        fan = cls(dim, generators, lattice.facets)
        fan.__dict__["_record"] = lattice
        return fan

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """Bit ``c`` of entry ``v`` is set iff ``max_cones[c]`` contains ray ``v``.

        The library's one face representation: a ray set spans a cone iff
        the AND of its masks (every cone, for the empty set) is nonzero.
        Each mask is built as a binary numeral (a leading 0, then cone ``c``
        at ``top - c``): OR-ing in bits would copy a growing integer per cone.
        """
        top = len(self.max_cones)
        digits = [bytearray(b"0") * (top + 1) for _ in self.generators]
        for c, cone in enumerate(self.max_cones):
            for v in cone:
                digits[v][top - c] = 49  # ord("1")
        return tuple(int(d, 2) for d in digits)

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.max_cones)) - 1

    def cone_mask(self, indices: Iterable[int]) -> int:
        """Maximal cones holding every given ray; nonzero iff the rays span a cone."""
        masks, out = self.incidence, self.full_mask
        for i in indices:
            if not 0 <= i < len(masks):
                raise BadIndexError(f"index {i} out of range 0..{len(masks) - 1}")
            out &= masks[i]
        return out

    def faces_over(
        self, mask: int, rays: Sequence[int]
    ) -> list[tuple[tuple[int, ...], int]]:
        """``(z, mask & cone_mask(z))`` for every subset ``z`` of the ascending
        ``rays`` where that is nonzero, by size then lexicographically.

        With ``mask = cone_mask(sigma)``, the faces containing ``sigma``.
        """
        inc = self.incidence
        out = []
        level = [((), mask, 0)] if mask else []
        while level:
            out.extend((z, zmask) for z, zmask, _ in level)
            level = [
                (z + (rays[k],), new, k + 1)
                for z, zmask, start in level
                for k in range(start, len(rays))
                if (new := zmask & inc[rays[k]])
            ]
        return out

    @cached_property
    def all_faces(self) -> tuple[tuple[int, ...], ...]:
        """Every cone as sorted ray indices, by size then lexicographically."""
        faces = self.faces_over(self.full_mask, range(len(self.generators)))
        return tuple(z for z, _ in faces)

    @cached_property
    def face_set(self) -> frozenset[frozenset[int]]:
        return frozenset(map(frozenset, self.all_faces))

    @cached_property
    def _inverses(self) -> Sequence[Matrix | None]:
        """Each maximal cone's integer inverse: a face fan's record's
        ``inverses``, or, on a fan built by hand, None until a query needs it."""
        record = self.__dict__.get("_record")
        return [None] * len(self.max_cones) if record is None else record.inverses

    def is_cone(self, indices: Iterable[int]) -> bool:
        """True iff the rays span a cone, i.e. the set is a face of a maximal cone."""
        return self.cone_mask(indices) != 0

    def _cone_inverse(self, ci: int) -> Matrix:
        inv = self._inverses[ci]
        if inv is None:
            cols = tuple(zip(*(self.generators[i] for i in self.max_cones[ci])))
            # a face fan's None is a cone that is not unimodular, so this raises
            inv = self._inverses[ci] = unimodular_inverse(cols)
        return inv

    def minimal_cone_containing(self, point: Sequence[int]) -> ConeLocation:
        """Locate a lattice point in its unique minimal cone.

        A monotone walk over the maximal cones (Devillers, Pion and
        Teillaud, "Walking in a triangulation", 2002), from cone 0.  The
        point's coordinates in a cone are its product with the cone's
        integer inverse.  While one is negative, the walk crosses the ridge
        opposite the most negative (the first, on a tie) into the other
        cone holding the ridge's rays: the other set bit of the AND of
        their incidence masks.  On a face fan each crossing strictly
        raises ``u_F . x / c_F``, the facet's normal over its offset, since
        the neighbour's form minus the current one vanishes on the ridge
        and is negative at the dropped ray.  So the walk is the simplex
        method on the dual polytope: it never cycles and it ends in a cone
        that contains the point.  Where the neighbour is missing or was
        visited already (an incomplete fan, or a hand-built one with no
        convex support), the unvisited cones are scanned in order, and
        FanNotCompleteError is raised only if none of them contains the
        point.  On a complete simplicial fan the strictly positive support
        does not depend on which containing cone is found.  The zero
        vector sits in the trivial cone with empty support.  A coordinate
        whose type is not ``int`` raises TypeError.
        """
        pt = int_vector(point, "point")
        if len(pt) != self.dim:
            raise ShapeMismatchError(
                f"point has length {len(pt)}, fan has dimension {self.dim}"
            )
        if not any(pt):
            return ConeLocation((), ())
        cones, inc = self.max_cones, self.incidence
        visited: set[int] = set()
        ci = 0 if cones else -1
        while ci >= 0 and ci not in visited:
            visited.add(ci)
            coords = mat_vec(self._cone_inverse(ci), pt)
            k = min(range(len(coords)), key=coords.__getitem__)
            if coords[k] >= 0:
                break
            ridge = self.full_mask
            for j, i in enumerate(cones[ci]):
                if j != k:
                    ridge &= inc[i]
            others = ridge & ~(1 << ci)
            ci = (others & -others).bit_length() - 1
        else:
            for ci in range(len(cones)):
                if ci not in visited:
                    coords = mat_vec(self._cone_inverse(ci), pt)
                    if min(coords) >= 0:
                        break
            else:
                raise FanNotCompleteError(
                    f"no maximal cone contains {pt}; upstream hull data must be wrong"
                )
        support = tuple(i for i, x in zip(cones[ci], coords) if x > 0)
        return ConeLocation(support, tuple(x for x in coords if x > 0))

    def star_quotient(self, sigma: Iterable[int]) -> tuple["Fan", StarQuotientLift]:
        """Fan of the quotient lattice along a cone, with lifting data.

        The projection comes from the fan's own cone inverses: with ``C``
        the first maximal cone holding ``sigma`` and ``D`` its integer
        inverse, the rows of ``D`` at the positions of ``C - sigma`` kill
        ``sigma`` and, ``D`` being unimodular, map Z^n onto Z^(n - r).
        Rays of the result are the projections of every generator that
        spans a cone together with ``sigma``, in index order, each
        primitive because ``sigma + w`` is a face of a unimodular cone;
        maximal cones are the images of the maximal cones containing
        ``sigma``.  Two cones ``sigma + w`` of a fan meet only
        in ``sigma``, so no two generators project onto one ray; when two
        do, NotAFanError names both.
        """
        sig = tuple(sorted(set(sigma)))
        sig_mask = self.cone_mask(sig)
        if not sig_mask:
            raise NotAConeError(f"{sig} is not a cone of the fan")
        if sig:
            ci = (sig_mask & -sig_mask).bit_length() - 1
            cone = self.max_cones[ci]
            proj = tuple(
                row for i, row in zip(cone, self._cone_inverse(ci)) if i not in sig
            )
            if any(any(mat_vec(proj, self.generators[i])) for i in sig):
                raise InternalInconsistencyError(f"projection does not kill {sig}")
        else:
            proj = identity_matrix(self.dim)

        lifts: dict[Vector, int] = {}  # quotient ray -> its one preimage
        for w, w_mask in enumerate(self.incidence):
            if w in sig or not sig_mask & w_mask:
                continue
            u = mat_vec(proj, self.generators[w])
            if u in lifts:
                raise NotAFanError(
                    f"generators {lifts[u]} and {w} project onto one ray along {sig}"
                )
            lifts[u] = w
        images = {w: i for i, w in enumerate(lifts.values())}

        quotient_cones = sorted(
            {
                tuple(sorted(images[w] for w in cone if w not in sig))
                for ci, cone in enumerate(self.max_cones)
                if sig_mask >> ci & 1
            }
        )
        qfan = Fan(self.dim - len(sig), tuple(lifts), tuple(quotient_cones))
        return qfan, StarQuotientLift(sig, proj, tuple(lifts.values()))
