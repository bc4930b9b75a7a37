import random
from fractions import Fraction

import pytest

from fanorank import construct
from fanorank import polytope as polytope_module
from fanorank.bounds import analyze
from fanorank.formats import report_json
from fanorank.lattice import ShapeMismatchError, determinant
from fanorank.polytope import (
    FanoPolytope,
    NotFanoShapeError,
    _exhaustive_scan,
    _pivot_walk,
    free_sum,
    hexagon,
    simplex,
    validate_smooth_fano,
)

from helpers import NON_PRODUCTS, hull_edges_by_angle, random_unimodular, transformed_copy


class TestFacets:
    def test_simplex2_is_a_triangle(self):
        assert simplex(2).face_lattice.facets == ((0, 1), (0, 2), (1, 2))

    def test_hexagon_edges_match_angular_sort_oracle(self):
        h = hexagon()
        assert h.face_lattice.facets == hull_edges_by_angle(h.vertices)

    def test_two_d_facets_match_oracle_after_shuffling(self):
        rng = random.Random(11)
        for p in (hexagon(), simplex(2), free_sum(simplex(1), simplex(1))):
            for _ in range(5):
                q = transformed_copy(p, random_unimodular(2, rng), rng)
                assert q.face_lattice.facets == hull_edges_by_angle(q.vertices)

    def test_cross_polytope_has_four_facets(self):
        square = free_sum(simplex(1), simplex(1))
        assert len(square.face_lattice.facets) == 4

    def test_every_vertex_on_at_least_dim_facets(self):
        for p in (simplex(3), hexagon(), free_sum(simplex(2), hexagon())):
            counts = {i: 0 for i in range(len(p.vertices))}
            for f in p.face_lattice.facets:
                for i in f:
                    counts[i] += 1
            assert all(c >= p.dim for c in counts.values())

    def test_not_full_dimensional_raises(self):
        flat = FanoPolytope(2, ((1, 0), (-1, 0)))
        with pytest.raises(NotFanoShapeError):
            flat.face_lattice

    def test_origin_not_interior_raises(self):
        shifted = FanoPolytope(2, ((1, 0), (0, 1), (1, 1)))
        with pytest.raises(NotFanoShapeError):
            shifted.face_lattice


class TestValidation:
    def test_hexagon_passes(self):
        assert validate_smooth_fano(hexagon()).passed

    def test_simplices_pass_up_to_dim_ten(self):
        for n in range(1, 11):
            assert validate_smooth_fano(simplex(n)).passed, n

    def test_non_unimodular_facet_detected(self):
        p = FanoPolytope(2, ((1, 0), (0, 1), (-1, -2)))
        report = validate_smooth_fano(p)
        assert not report.passed
        assert report.failures == ("facets_unimodular",)

    def test_non_primitive_vertex_detected(self):
        p = FanoPolytope(2, ((2, 0), (0, 1), (-1, -1)))
        report = validate_smooth_fano(p)
        assert not report.passed
        assert "vertices_primitive" in report.failures

    def test_duplicate_vertex_detected(self):
        p = FanoPolytope(2, ((1, 0), (1, 0), (0, 1), (-1, -1)))
        assert "vertices_distinct" in validate_smooth_fano(p).failures

    def test_interior_point_detected(self):
        p = FanoPolytope(2, ((2, 1), (1, 2), (-1, -1), (1, 1)))
        report = validate_smooth_fano(p)
        assert "vertices_extremal" in report.failures

    def test_point_on_edge_breaks_simpliciality(self):
        # (1,-1), (1,0), (1,1) are collinear, so (1,0) sits inside an edge
        p = FanoPolytope(2, ((1, -1), (1, 0), (1, 1), (-1, 0)))
        report = validate_smooth_fano(p)
        assert "simplicial" in report.failures

    def test_low_dimensional_input_reports_all_downstream(self):
        p = FanoPolytope(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)))
        report = validate_smooth_fano(p)
        assert "full_dimensional" in report.failures
        assert "origin_interior" in report.failures

    def test_all_facets_unimodular_on_validated_members(self):
        for p in (simplex(4), hexagon(), free_sum(hexagon(), simplex(1))):
            assert validate_smooth_fano(p).passed
            for f in p.face_lattice.facets:
                assert abs(determinant([p.vertices[i] for i in f])) == 1


class TestConstructors:
    def test_simplex1(self):
        assert simplex(1).vertices == ((1,), (-1,))

    def test_sharp_example_shape(self):
        p = free_sum(simplex(2), hexagon())
        assert p.dim == 4
        assert len(p.vertices) == 9

    def test_square_validates(self):
        assert validate_smooth_fano(free_sum(simplex(1), simplex(1))).passed

    def test_free_sum_facet_count_is_multiplicative(self):
        for a, b in ((simplex(1), simplex(2)), (simplex(1), hexagon())):
            ab = free_sum(a, b)
            na = len(a.face_lattice.facets)
            nb = len(b.face_lattice.facets)
            assert len(ab.face_lattice.facets) == na * nb

    def test_free_sum_validates_iff_factors_do(self):
        good = free_sum(simplex(1), hexagon())
        assert validate_smooth_fano(good).passed
        bad = FanoPolytope(2, ((1, 0), (0, 1), (-1, -2)))
        mixed = free_sum(bad, simplex(1))
        assert not validate_smooth_fano(mixed).passed

    def test_vertex_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            FanoPolytope(2, ((1, 0, 0),))

    @pytest.mark.parametrize(
        "bad", [1.7, True, Fraction(1)], ids=["float", "bool", "Fraction"]
    )
    def test_non_int_coordinate_rejected(self, bad):
        # int(1.7) would make this P^2, which validates
        with pytest.raises(TypeError, match="must be int"):
            FanoPolytope(2, ((bad, 0), (0, 1), (-1, -1)))


class TestNormalForm:
    def test_permuted_simplex_equal(self):
        p = FanoPolytope(2, ((0, 1), (1, 0), (-1, -1)))
        assert p.normal_form() == simplex(2).normal_form()

    def test_simplex_vs_square_differ(self):
        assert simplex(2).normal_form() != free_sum(simplex(1), simplex(1)).normal_form()

    def test_invariance_under_random_transforms(self):
        rng = random.Random(2024)
        targets = [
            simplex(1),
            simplex(2),
            simplex(3),
            hexagon(),
            free_sum(simplex(1), simplex(1)),
            free_sum(simplex(2), simplex(1)),
            free_sum(simplex(2), hexagon()),
        ]
        for p in targets:
            nf = p.normal_form()
            for _ in range(100):
                q = transformed_copy(p, random_unimodular(p.dim, rng), rng)
                assert q.normal_form() == nf


BAD_INPUTS = {
    "point on an edge": (2, ((1, -1), (1, 0), (1, 1), (-1, 0))),
    "3-cube": (3, tuple((a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1))),
    "hexagon^2 plus a point": (
        4,
        construct("product(hexagon,hexagon)").vertices + ((1, 1, 1, 1),),
    ),
    "duplicate vertex": (2, ((1, 0), (1, 0), (0, 1), (-1, -1))),
    "interior point": (2, ((2, 1), (1, 2), (-1, -1), (1, 1))),
    "origin on a facet hyperplane": (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0))),
    "origin outside": (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))),
    "non-unimodular facet": (2, ((1, 0), (0, 1), (-1, -2))),
}


def assert_pivot_matches_scan(p):
    facets, evidence = _exhaustive_scan(p.vertices, p.dim)
    assert not evidence, p.name
    assert _pivot_walk(p.vertices, p.dim) == facets, p.name


class TestPivotAgainstScan:
    def test_corpus(self, corpus):
        for _, p in corpus:
            assert_pivot_matches_scan(p)

    @pytest.mark.parametrize(
        "spec", ["product(hexagon,hexagon,hexagon)", "product(simplex:2,hexagon,hexagon)"]
    )
    def test_random_images(self, spec):
        rng = random.Random(spec)
        p = construct(spec)
        for _ in range(10):
            assert_pivot_matches_scan(transformed_copy(p, random_unimodular(p.dim, rng), rng))

    @pytest.mark.parametrize("name", sorted(NON_PRODUCTS))
    def test_non_products(self, name):
        dim, verts = NON_PRODUCTS[name]
        p = FanoPolytope(dim, verts, name)
        assert validate_smooth_fano(p).passed
        assert_pivot_matches_scan(p)

    @pytest.mark.parametrize("name", sorted(BAD_INPUTS))
    def test_bad_input_reports_unchanged(self, name, monkeypatch):
        dim, verts = BAD_INPUTS[name]
        walked = FanoPolytope(dim, verts, name)
        text = report_json(analyze(walked))
        assert not walked.validate().passed
        monkeypatch.setattr(polytope_module, "_pivot_walk", lambda verts, n: None)
        scanned = FanoPolytope(dim, verts, name)
        assert scanned._hull_scan == _exhaustive_scan(verts, dim)
        assert walked._hull_scan == scanned._hull_scan
        assert report_json(analyze(scanned)) == text

    def test_valid_inputs_never_reach_the_scan(self, corpus, monkeypatch):
        def refuse(verts, n):
            raise AssertionError("exhaustive scan on a valid input")

        monkeypatch.setattr(polytope_module, "_exhaustive_scan", refuse)
        members = [(p.dim, p.vertices) for _, p in corpus] + list(NON_PRODUCTS.values())
        for dim, verts in members:
            assert validate_smooth_fano(FanoPolytope(dim, verts)).passed
