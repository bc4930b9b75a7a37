import itertools
import random

import pytest

from fanorank import construct
from fanorank import fan as fan_module
from fanorank.fan import BadIndexError, Fan, FanNotCompleteError, NotAConeError, NotAFanError
from fanorank.lattice import determinant, mat_vec, unimodular_inverse
from fanorank.polytope import FanoPolytope, free_sum, hexagon, simplex

from helpers import (
    NON_PRODUCTS,
    is_quotient_image,
    rays_and_two_cones,
    scan_minimal_cone,
    star_quotient_oracle,
)


def fan_of(p):
    return Fan.from_polytope(p)


class TestConstruction:
    def test_simplex2_cone_count(self):
        assert len(fan_of(simplex(2)).max_cones) == 3

    def test_hexagon_cone_count(self):
        assert len(fan_of(hexagon()).max_cones) == 6

    def test_product_cone_count(self):
        f = fan_of(free_sum(simplex(1), hexagon()))
        assert len(f.max_cones) == 12

    def test_generators_keep_vertex_order(self):
        h = hexagon()
        assert fan_of(h).generators == h.vertices


class TestIsCone:
    def test_adjacent(self):
        assert fan_of(hexagon()).is_cone((0, 1))

    def test_antipodal(self):
        assert not fan_of(hexagon()).is_cone((0, 3))

    def test_empty(self):
        assert fan_of(hexagon()).is_cone(())

    def test_bad_index(self):
        with pytest.raises(BadIndexError):
            fan_of(hexagon()).is_cone((9,))


class TestPointLocation:
    def test_origin_has_empty_support(self):
        loc = fan_of(hexagon()).minimal_cone_containing((0, 0))
        assert loc.support == () and loc.coefficients == ()

    def test_interior_of_two_cone(self):
        loc = fan_of(hexagon()).minimal_cone_containing((2, 1))
        assert loc.support == (0, 1)
        assert loc.coefficients == (1, 1)

    def test_ray_generator_itself(self):
        loc = fan_of(hexagon()).minimal_cone_containing((1, 1))
        assert loc.support == (1,)
        assert loc.coefficients == (1,)

    def test_inexact_coordinates_rejected(self):
        fan = fan_of(simplex(2))
        for pt in ((0.5, 1.7), (True, False)):
            with pytest.raises(TypeError, match="must be int"):
                fan.minimal_cone_containing(pt)

    def test_reconstruction_and_completeness(self, corpus_fans):
        rng = random.Random(99)
        for name, p, fan in corpus_fans:
            for _ in range(1000):
                pt = tuple(rng.randint(-9, 9) for _ in range(fan.dim))
                loc = fan.minimal_cone_containing(pt)
                rebuilt = [0] * fan.dim
                for i, a in zip(loc.support, loc.coefficients):
                    g = fan.generators[i]
                    for k in range(fan.dim):
                        rebuilt[k] += a * g[k]
                assert tuple(rebuilt) == pt, name
                assert all(a > 0 for a in loc.coefficients)
                assert fan.is_cone(loc.support)

    def test_walk_matches_scan_oracle(self, sweep_fans):
        """The walk finds what a scan of every cone over ``Fraction`` finds, on
        seeded lattice points of the corpus fans, the non-products and their
        star quotients along every ray."""
        rng = random.Random(12)
        for name, _, fan in sweep_fans:
            fans = [(name, fan, 50)]
            fans += [((name, v), fan.star_quotient((v,))[0], 10) for v in range(len(fan.generators))]
            for where, f, count in fans:
                for _ in range(count):
                    pt = tuple(rng.randint(-6, 6) for _ in range(f.dim))
                    loc = f.minimal_cone_containing(pt)
                    assert (loc.support, loc.coefficients) == scan_minimal_cone(f, pt), (where, pt)

    def test_walk_is_monotone_on_a_face_fan(self, monkeypatch):
        """On hexagon^4 (1296 cones) the walk reaches each point's cone with
        no scan: a crossing moves one hexagon factor one cone towards the
        point, and no factor needs more than 3, so at most 13 cones are solved."""
        fan = fan_of(construct("product(hexagon,hexagon,hexagon,hexagon)"))
        solved = []

        def counted(m, v):
            solved.append(v)
            return mat_vec(m, v)

        monkeypatch.setattr(fan_module, "mat_vec", counted)
        rng = random.Random(13)
        for _ in range(300):
            pt = tuple(rng.randint(-9, 9) for _ in range(fan.dim))
            solved.clear()
            fan.minimal_cone_containing(pt)
            assert len(solved) <= 13, (pt, len(solved))

    def test_face_fan_inverses_come_from_the_walk(self, corpus):
        """Every cone's pre-filled inverse is the face lattice's, and the cone's
        own integer inverse."""
        members = [p for _, p in corpus]
        members += [FanoPolytope(dim, verts, name) for name, (dim, verts) in NON_PRODUCTS.items()]
        for p in members:
            fan = Fan.from_polytope(p)
            inverses = p.face_lattice.inverses
            # the hull's one record, held by the fan as it stands
            assert p.face_lattice is p._hull and fan._inverses is inverses, p.name
            for cone, inverse in zip(fan.max_cones, inverses):
                cols = tuple(zip(*(fan.generators[i] for i in cone)))
                assert inverse == unimodular_inverse(cols), (p.name, cone)

    def test_face_fan_reads_no_inverse_before_a_query(self):
        """A face fan takes its record's inverses only when point location or
        a star quotient first needs one, so a joined record forms none for
        face queries."""
        hexagon3 = construct("product(hexagon,hexagon,hexagon)")
        shuffled = tuple(random.Random(9).sample(hexagon3.vertices, 18))
        members = [(6, hexagon3.vertices, True), (6, shuffled, True)]
        members.append((*NON_PRODUCTS[sorted(NON_PRODUCTS)[0]], False))
        queries = (
            lambda fan: fan.minimal_cone_containing((1,) * fan.dim),
            lambda fan: fan.star_quotient(fan.max_cones[0][:1]),
        )
        for dim, verts, joined in members:
            for query in queries:
                p = FanoPolytope(dim, verts)
                fan = Fan.from_polytope(p)
                assert bool(p.face_lattice.factors) is joined
                assert fan.is_cone(fan.max_cones[-1]) and fan.faces_over(fan.full_mask, [0])
                assert "_inverses" not in fan.__dict__
                assert "inverses" not in p.face_lattice.__dict__
                query(fan)
                assert fan.__dict__["_inverses"] is p.face_lattice.inverses

    def test_non_unimodular_cones_stay_lazy(self):
        p = FanoPolytope(2, ((1, 0), (0, 1), (-1, -2)))
        fan = Fan.from_polytope(p)
        unimodular = [
            ci
            for ci, cone in enumerate(fan.max_cones)
            if abs(determinant([fan.generators[i] for i in cone])) == 1
        ]
        carried = [ci for ci, inverse in enumerate(p.face_lattice.inverses) if inverse is not None]
        held = [ci for ci, inverse in enumerate(fan._inverses) if inverse is not None]
        assert carried == held == unimodular == [0, 2]
        # (0, -1) = ((1, 0) + (-1, -2)) / 2 lies inside the one non-unimodular
        # cone, so every search order has to invert it
        with pytest.raises(ValueError, match="not unimodular"):
            fan.minimal_cone_containing((0, -1))

    def test_hand_built_fan_inverts_lazily(self):
        h = fan_of(hexagon())
        fan = Fan(h.dim, h.generators, h.max_cones)
        assert fan._inverses == [None] * 6
        assert fan.minimal_cone_containing((2, 1)) == h.minimal_cone_containing((2, 1))
        inverted = [ci for ci, inverse in enumerate(fan._inverses) if inverse is not None]
        assert inverted and all(fan._inverses[ci] == h._inverses[ci] for ci in inverted)

    def test_incomplete_fan_detected(self):
        """With any one maximal cone dropped from the hexagon and blow-up fans,
        every point of a box is located as the scan oracle locates it: where
        the walk meets the gap it scans the cones it has not visited, and it
        raises only where no cone holds the point."""
        blowup = FanoPolytope(*NON_PRODUCTS["P^3 blown up at a point"])
        for p in (hexagon(), blowup):
            whole = fan_of(p)
            for drop in range(len(whole.max_cones)):
                cones = whole.max_cones[:drop] + whole.max_cones[drop + 1 :]
                fan = Fan(whole.dim, whole.generators, cones)
                for pt in itertools.product(range(-3, 4), repeat=fan.dim):
                    expected = scan_minimal_cone(fan, pt)
                    if expected is None:
                        with pytest.raises(FanNotCompleteError):
                            fan.minimal_cone_containing(pt)
                    else:
                        loc = fan.minimal_cone_containing(pt)
                        assert (loc.support, loc.coefficients) == expected, (drop, pt)


class TestSmoothness:
    def test_all_corpus_cones_unimodular(self, corpus_fans):
        for name, p, fan in corpus_fans:
            for cone in fan.max_cones:
                assert len(cone) == fan.dim
                det = determinant([fan.generators[i] for i in cone])
                assert abs(det) == 1, name


class TestStarQuotient:
    def test_product_quotient_is_plane_fan(self):
        f = fan_of(free_sum(simplex(2), simplex(1)))
        qfan, lift = f.star_quotient((3,))
        assert qfan.dim == 2
        # the coordinates come from the first cone holding the center, and a
        # free sum's cones come in the product order of its factors' facets
        assert set(qfan.generators) == {(1, 0), (0, 1), (-1, -1)}
        assert qfan.max_cones == ((0, 1), (0, 2), (1, 2))
        assert lift.ray_lift == (0, 1, 2)

    def test_hexagon_quotient_is_line_fan(self):
        qfan, lift = fan_of(hexagon()).star_quotient((0,))
        assert qfan.dim == 1
        assert set(qfan.generators) == {(1,), (-1,)}
        assert sorted(qfan.max_cones) == [(0,), (1,)]
        # neighbours v2 and v6 are the only generators sharing a cone with v1
        assert lift.ray_lift == (1, 5)

    def test_empty_center_returns_same_fan(self):
        f = fan_of(hexagon())
        qfan, lift = f.star_quotient(())
        assert qfan == f
        assert lift.ray_lift == tuple(range(6))
        assert lift.projection == ((1, 0), (0, 1))

    def test_not_a_cone_rejected(self):
        with pytest.raises(NotAConeError):
            fan_of(hexagon()).star_quotient((0, 3))

    def test_quotient_fans_are_complete(self, corpus_fans):
        """Random lattice points all land in some cone of each quotient fan;
        ``test_sweep_matches_oracle`` checks the quotient cones themselves."""
        rng = random.Random(5)
        for _, _, fan in corpus_fans:
            if fan.dim < 2 or len(fan.generators) > 12:
                continue
            for ray in range(0, len(fan.generators), 3):
                qfan, _ = fan.star_quotient((ray,))
                for _ in range(50):
                    pt = tuple(rng.randint(-5, 5) for _ in range(qfan.dim))
                    qfan.minimal_cone_containing(pt)

    def test_transverse_rays_lift_one_each(self):
        # quotient of (P^1)^2 by a ray: the two transverse rays stay apart
        f = fan_of(free_sum(simplex(1), simplex(1)))
        qfan, lift = f.star_quotient((0,))
        assert set(qfan.generators) == {(1,), (-1,)}
        assert lift.ray_lift == (2, 3)

    def test_overlapping_cones_rejected(self):
        # the cones over (e1, e2) and (e1, e1 + e2) overlap, so this is no fan
        # and both link generators project onto the same quotient ray
        broken = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2)))
        with pytest.raises(NotAFanError, match="generators 1 and 2"):
            broken.star_quotient((0,))

    def test_sweep_matches_oracle(self, sweep_fans):
        """Along every ray and 2-cone of the corpus and the non-products, the
        quotient's cones and lifts equal the star read off the maximal cones,
        its rays are a linear image of the link that kills the center, and
        every quotient cone is unimodular."""
        for name, p, fan in sweep_fans:
            for sigma in rays_and_two_cones(fan):
                qfan, lift = fan.star_quotient(sigma)
                link, cones = star_quotient_oracle(fan, sigma)
                where = (name, sigma)
                assert lift.ray_lift == link, where
                lifted = sorted(tuple(sorted(lift.ray_lift[i] for i in c)) for c in qfan.max_cones)
                assert lifted == cones, where
                assert is_quotient_image(fan, sigma, link, qfan.generators), where
                for cone in qfan.max_cones:
                    assert abs(determinant([qfan.generators[i] for i in cone])) == 1, where
