import pytest

from fanorank.fan import Fan, NotAConeError
from fanorank.lattice import InternalInconsistencyError
from fanorank.mori import (
    NotCertifiedExtremalError,
    PrimitiveRelation,
    count_pc_extensions,
    lift_zero_sum_collections,
    minimal_components,
    picard_rank,
    primitive_collections,
    primitive_relation,
    verify_reid_cones,
)
from fanorank.polytope import free_sum, hexagon, simplex

from helpers import brute_force_primitive_collections, rank_over_q, rays_and_two_cones


def fan_of(p):
    return Fan.from_polytope(p)


HEX = fan_of(hexagon())


class TestPrimitiveCollections:
    def test_simplex_has_one_collection(self):
        for n in (2, 3, 5):
            assert primitive_collections(fan_of(simplex(n))) == (tuple(range(n + 1)),)

    def test_hexagon_has_nine_pairs(self):
        pcs = primitive_collections(HEX)
        assert len(pcs) == 9
        assert all(len(pc) == 2 for pc in pcs)
        # three antipodal pairs and six skew pairs
        assert {(0, 3), (1, 4), (2, 5)} <= set(pcs)

    def test_free_sum_is_disjoint_union(self):
        f = fan_of(free_sum(simplex(1), simplex(1)))
        assert primitive_collections(f) == ((0, 1), (2, 3))

    def test_matches_brute_force_on_products(self):
        for p in (
            free_sum(simplex(1), simplex(1)),
            free_sum(simplex(2), simplex(1)),
            free_sum(hexagon(), simplex(1)),
        ):
            f = fan_of(p)
            assert primitive_collections(f) == brute_force_primitive_collections(f)

    def test_definition_invariants(self, corpus_fans):
        for name, p, fan in corpus_fans:
            for pc in primitive_collections(fan):
                assert 2 <= len(pc) <= fan.dim + 1, name
                assert not fan.is_cone(pc), name
                fs = frozenset(pc)
                assert all(fan.is_cone(fs - {x}) for x in pc), name


class TestPrimitiveRelations:
    def test_hexagon_skew_pair(self):
        rel = primitive_relation(HEX, (0, 2))
        assert rel.rhs == ((1, 1),)
        assert rel.degree == 1

    def test_hexagon_antipodal_pair(self):
        rel = primitive_relation(HEX, (0, 3))
        assert rel.rhs == ()
        assert rel.degree == 2

    def test_simplex_defining_relation(self):
        rel = primitive_relation(fan_of(simplex(2)), (0, 1, 2))
        assert rel.rhs == ()
        assert rel.degree == 3

    def test_degrees_positive_and_sides_disjoint(self, corpus_fans):
        for name, p, fan in corpus_fans:
            for pc in primitive_collections(fan):
                rel = primitive_relation(fan, pc)
                assert rel.degree >= 1, name
                assert all(a > 0 for _, a in rel.rhs), name
                assert not set(rel.collection) & {i for i, _ in rel.rhs}, name


class TestMinimalComponents:
    def test_simplex(self):
        comps = minimal_components(fan_of(simplex(4)))
        assert len(comps) == 1
        assert comps[0].degree == 5 and comps[0].codegree == 0

    def test_hexagon(self):
        comps = minimal_components(HEX)
        assert [c.collection for c in comps] == [(0, 3), (1, 4), (2, 5)]
        assert all(c.degree == 2 and c.codegree == 1 for c in comps)

    def test_sharp_family_member(self):
        comps = minimal_components(fan_of(free_sum(simplex(2), hexagon())))
        degrees = sorted(c.degree for c in comps)
        codegrees = sorted(c.codegree for c in comps)
        assert degrees == [2, 2, 2, 3]
        assert codegrees == [2, 3, 3, 3]

    def test_free_sum_components_are_union_of_factors(self):
        a, b = hexagon(), simplex(2)
        ab = free_sum(a, b)
        na = len(a.vertices)
        shifted = [tuple(i + na for i in c.collection) for c in minimal_components(fan_of(b))]
        plain = [c.collection for c in minimal_components(fan_of(a))]
        got = [c.collection for c in minimal_components(fan_of(ab))]
        assert sorted(got) == sorted(plain + shifted)

    def test_product_components_match_brute_force(self, corpus_fans):
        # on every product small enough, the zero-sum collections found by
        # the depth-first walk equal those of a raw subset scan
        for name, p, fan in corpus_fans:
            if "product" not in name or len(fan.generators) > 12:
                continue
            brute = []
            for pc in brute_force_primitive_collections(fan):
                total = [0] * fan.dim
                for i in pc:
                    for k in range(fan.dim):
                        total[k] += fan.generators[i][k]
                if not any(total):
                    brute.append(pc)
            assert [c.collection for c in minimal_components(fan)] == brute, name


class TestCurveClasses:
    """A primitive relation is its curve class: +1 on the collection, minus
    the right-hand coefficients on their rays, of degree their difference."""

    def test_hexagon_skew_class(self):
        # v1 + v3 = v2
        assert primitive_relation(HEX, (0, 2)) == PrimitiveRelation((0, 2), ((1, 1),), 1)

    def test_hexagon_antipodal_class(self):
        assert primitive_relation(HEX, (0, 3)) == PrimitiveRelation((0, 3), (), 2)

    def test_simplex_class(self):
        f = fan_of(simplex(2))
        assert primitive_relation(f, (0, 1, 2)) == PrimitiveRelation((0, 1, 2), (), 3)

    def test_degrees(self):
        rels = [primitive_relation(HEX, pc) for pc in primitive_collections(HEX)]
        assert sorted(r.degree for r in rels) == [1] * 6 + [2] * 3
        assert all(r.degree == len(r.collection) - sum(a for _, a in r.rhs) for r in rels)

    def test_non_relation_rejected(self):
        # a cone is no primitive collection: its sum lies in the cone itself
        with pytest.raises(InternalInconsistencyError, match="meets its own"):
            primitive_relation(HEX, (0, 1))

    def test_effectiveness(self, sweep_fans):
        # the relation holds, and its negative part spans a cone
        for name, p, fan in sweep_fans:
            for pc in primitive_collections(fan):
                rel = primitive_relation(fan, pc)
                lhs = [sum(fan.generators[i][k] for i in pc) for k in range(fan.dim)]
                rhs = [sum(a * fan.generators[j][k] for j, a in rel.rhs) for k in range(fan.dim)]
                assert lhs == rhs, (name, pc)
                assert fan.is_cone(j for j, _ in rel.rhs), (name, pc)

    def test_extremal_degree_one(self):
        assert primitive_relation(HEX, (0, 2)).degree == 1
        assert primitive_relation(HEX, (0, 3)).degree != 1
        f = fan_of(simplex(2))
        assert primitive_relation(f, (0, 1, 2)).degree != 1


class TestReidCones:
    def test_hexagon_degree_one_clean(self):
        rel = primitive_relation(HEX, (0, 2))
        assert verify_reid_cones(HEX, rel) == ()

    def test_uncertified_relation_rejected(self):
        rel = primitive_relation(HEX, (0, 3))
        with pytest.raises(NotCertifiedExtremalError):
            verify_reid_cones(HEX, rel)

    def test_known_extremal_product_relation(self):
        # the plane-factor relation of P2 x P1 is extremal by the product
        # structure even though its degree is 3; the cone checks with the
        # line-factor rays adjoined must still all pass
        f = fan_of(free_sum(simplex(2), simplex(1)))
        rel = primitive_relation(f, (0, 1, 2))
        assert rel.degree == 3
        assert verify_reid_cones(f, rel, require_degree_one=False) == ()

    def test_violation_reported_on_doctored_fan(self):
        # removing the cone {v1, v2} makes the drop-v3 check fail
        cones = tuple(c for c in HEX.max_cones if c != (0, 1))
        broken = Fan(2, HEX.generators, cones)
        rel = primitive_relation(HEX, (0, 2))
        violations = verify_reid_cones(broken, rel)
        assert violations == ((2, ()),)


class TestExtensionsAndRank:
    def test_hexagon_attains_three(self):
        assert count_pc_extensions(HEX, (0,)) == 3

    def test_simplex_has_none(self):
        assert count_pc_extensions(fan_of(simplex(2)), (0,)) == 0

    def test_hexagon_edge_has_none(self):
        assert count_pc_extensions(HEX, (0, 1)) == 0

    def test_non_cone_rejected(self):
        with pytest.raises(NotAConeError):
            count_pc_extensions(HEX, (0, 3))

    def test_picard_ranks(self):
        assert picard_rank(fan_of(simplex(7))) == 1
        assert picard_rank(HEX) == 4
        assert picard_rank(fan_of(free_sum(simplex(2), hexagon()))) == 5

    def test_rank_equals_kernel_rank_of_generator_matrix(self, corpus_fans):
        for name, p, fan in corpus_fans:
            cols = tuple(zip(*fan.generators))  # dim x m matrix
            kernel_rank = len(fan.generators) - rank_over_q(cols)
            assert picard_rank(fan) == kernel_rank, name


class TestZeroSumLifts:
    def test_product_with_line_factor(self):
        f = fan_of(free_sum(simplex(2), simplex(1)))
        lifts = lift_zero_sum_collections(f, (3,))
        assert len(lifts) == 1
        lift = lifts[0]
        assert lift.forms_cone
        assert f.is_cone((3,) + lift.lifted)

    def test_every_corpus_star_lifts(self, sweep_fans):
        """Every zero-sum collection of the star quotient along every ray and
        every 2-cone lifts to a cone, on the corpus and the non-products."""
        lifted = {1: 0, 2: 0}
        for name, p, fan in sweep_fans:
            for sigma in rays_and_two_cones(fan):
                for lift in lift_zero_sum_collections(fan, sigma):
                    assert lift.forms_cone, (name, sigma, lift)
                    assert fan.is_cone(sigma + lift.lifted), (name, sigma, lift)
                    lifted[len(sigma)] += 1
        assert lifted == {1: 685, 2: 2225}
