import json
import random
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations_with_replacement, product
from types import SimpleNamespace

import pytest

from fanorank import construct, polytope
from fanorank.bounds import analyze
from fanorank.enum2d import _rings, enumerate_2d
from fanorank.formats import validation_to_dict
from fanorank.lattice import ShapeMismatchError, determinant
from fanorank.polytope import (
    FanoPolytope,
    NotFanoShapeError,
    free_sum,
    hexagon,
    simplex,
    validate_smooth_fano,
)

from helpers import (
    NON_PRODUCTS,
    brute_force_hull,
    brute_force_normal_form,
    det_over_q,
    hull_edges_by_angle,
    random_unimodular,
    rank_over_q,
    transformed_copy,
    twisted_lift,
)


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
                # a free sum's facets come in the product order of its factors'
                assert sorted(q.face_lattice.facets) == sorted(hull_edges_by_angle(q.vertices))

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

    @pytest.mark.parametrize(
        "verts, detail",
        [
            (((1, 0, 0), (0, 1, 0), (-1, -1, 0)), "affine rank 2 < 3"),
            (((1, 1, 1), (2, 2, 2), (-1, -1, -1), (1, 1, 1)), "affine rank 1 < 3"),
        ],
        ids=["bad_flat", "collinear"],
    )
    def test_flat_input_ends_the_walk_with_its_rank(self, verts, detail):
        # the first facet's pivots find no point off the face they touch
        p = FanoPolytope(3, verts)
        with pytest.raises(NotFanoShapeError, match=f"^{detail}$"):
            p._hull
        full = validate_smooth_fano(p).conditions[2]
        assert (full.name, full.passed, full.detail) == ("full_dimensional", False, detail)

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

    @pytest.mark.parametrize(
        "dim, verts",
        [(2.0, ((1, 0), (0, 1), (-1, -1))), (True, ((1,), (-1,)))],
        ids=["float", "bool"],
    )
    def test_non_int_dim_rejected(self, dim, verts):
        # 2.0 made analyze raise; True serialized as "dim": true
        with pytest.raises(TypeError, match="dimension must be int"):
            FanoPolytope(dim, verts)


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

    def test_equals_oracle(self, corpus):
        """Each member's form is the oracle's, and so is that of each of its seeded images.

        Every corpus product has its facets in one orbit of its automorphisms,
        so the members also include the free sums, up to dimension 5, of the
        4- and 5-vertex polygon classes with simplex:1, simplex:2 and each
        other, most of which have facets in more than one orbit.
        """
        rng = random.Random(8)
        members = [p for _, p in corpus if p.dim <= 5]
        members += [FanoPolytope(dim, verts, name) for name, (dim, verts) in NON_PRODUCTS.items()]
        polygons = [c for c in enumerate_2d(1) if len(c.vertices) in (4, 5)]
        factors = polygons + [simplex(1), simplex(2)]
        for size in (2, 3):
            for combo in combinations_with_replacement(factors, size):
                if combo[0] in polygons and sum(f.dim for f in combo) <= 5:
                    members.append(reduce(free_sum, combo))
        # simplex:1: itemgetter of one index returns a scalar, not a row
        assert min(p.dim for p in members) == 1
        for p in members:
            form = brute_force_normal_form(p)
            assert p.normal_form() == form, p.name
            for _ in range(10):
                q = transformed_copy(p, random_unimodular(p.dim, rng), rng)
                assert q.normal_form() == form, p.name


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
    # normal_form finds an automorphism (facets 1 and 2 tie) before reaching facet 3
    "non-unimodular facet after a tie": (2, ((-1, -1), (-1, 0), (0, -1), (0, 1), (2, 1))),
}


@pytest.mark.parametrize(
    "name, dim, verts",
    [(name, *BAD_INPUTS[name]) for name in sorted(BAD_INPUTS)] + [("flat", 2, ((1, 0), (-1, 0)))],
    ids=[*sorted(BAD_INPUTS), "flat"],
)
def test_normal_form_errors(name, dim, verts):
    # only a full-dimensional simplicial hull around the origin gets as far
    # as the facet inverses
    error = ValueError if name.startswith("non-unimodular") else NotFanoShapeError
    with pytest.raises(ValueError) as info:
        FanoPolytope(dim, verts, name).normal_form()
    assert type(info.value) is error, name


# Polygons that fail one condition each, for free sums with a bad factor.
# With the hexagon, the square and the non-primitive vertex give a first
# facet with d > 1, the coloop and the origin one-vertex components, and
# the others reach the factor walks, in one order at least, and fail a
# factor facet.
BAD_POLYGONS = {
    "square": ((1, 1), (-1, 1), (-1, -1), (1, -1)),
    "origin on an edge": ((1, 0), (1, 1), (0, 1), (-1, 0)),
    "origin outside": ((1, 0), (0, 1), (1, 1)),
    "point on an edge": ((-1, -1), (-1, 0), (-1, 1), (1, 0)),
    "interior point": BAD_INPUTS["interior point"][1],
    "repeated vertex": ((-1, -1), (-1, -1), (0, 1), (1, 0)),
    "non-primitive vertex": ((2, 0), (0, 1), (-1, -1)),
    "non-unimodular facet": BAD_INPUTS["non-unimodular facet"][1],
    # (1, 0) lies in no other vertex's circuit in the basis of the first facet
    "coloop triangle": ((-1, 0), (1, 0), (1, -1)),
    "origin as a point": ((1, 0), (0, 1), (-1, -1), (0, 0)),
}


SHAPE = ("full_dimensional", "origin_interior", "simplicial", "vertices_extremal")


@pytest.mark.parametrize(
    "name, dim, verts",
    [
        (name, *BAD_INPUTS[name])
        for name in sorted(BAD_INPUTS)
        if not name.startswith("non-unimodular")
    ]
    + [("flat", 2, ((1, 0), (-1, 0)))],
)
def test_face_lattice_quotes_the_failed_shape_condition(name, dim, verts):
    p = FanoPolytope(dim, verts, name)
    report = validate_smooth_fano(p)
    failed = next(c for c in report.conditions if c.name in SHAPE and not c.passed)
    with pytest.raises(NotFanoShapeError) as info:
        p.face_lattice
    assert str(info.value) == failed.detail, name


def test_analyze_decides_shape_and_report_once(monkeypatch):
    calls = {"shape": 0, "report": 0}
    shape, report = FanoPolytope.__dict__["_shape"].func, polytope.ValidationReport

    def counted_shape(self):
        calls["shape"] += 1
        return shape(self)

    def counted_report(*args):
        calls["report"] += 1
        return report(*args)

    counted = cached_property(counted_shape)
    counted.__set_name__(FanoPolytope, "_shape")
    monkeypatch.setattr(FanoPolytope, "_shape", counted)
    monkeypatch.setattr(polytope, "ValidationReport", counted_report)
    cube = FanoPolytope(*BAD_INPUTS["3-cube"], "3-cube")
    for p, valid in ((construct("product(simplex:2,hexagon)"), True), (cube, False)):
        calls.update(shape=0, report=0)
        assert analyze(p).valid is valid
        assert calls == {"shape": 1, "report": 1}, p.name


def whole_walk(p):
    """The facet walk on the whole polytope, called directly, so that no
    free sum is split into its factors."""
    return polytope._pivot_walk(p.vertices, p.dim, {})


def assert_walk_matches_oracle(p):
    """The whole walk finds the subset scan's facet hyperplanes, normals
    included, each normal is ``(c / d)`` times the sum of its dual basis
    rows, and the hull's record is the whole walk's: its first witness
    quoted, exact dual bases."""
    hyperplanes, evidence = brute_force_hull(p.vertices, p.dim)
    lattice, normals = whole_walk(p)
    assert list(zip(lattice.facets, normals, lattice.offsets)) == hyperplanes, p.name
    for u, c, dual in zip(normals, lattice.offsets, lattice.duals):
        if dual is not None:
            d, rows = dual
            assert u == tuple(c * t // d for t in map(sum, zip(*rows))), (p.name, u)
    assert p._hull == lattice, p.name
    assert_dual_bases_exact(p)
    details = {c.name: c.detail for c in validate_smooth_fano(p).conditions}
    witness = ""
    if evidence:
        subset, extra, _ = evidence[0]
        witness = f"facet hyperplane with extra vertices, e.g. {subset} + {extra}"
    assert details["simplicial"] == witness, p.name


def assert_dual_bases_exact(p):
    """Every facet of n points off the origin, and no other, carries (d, D) with
    d = |det B| by rational elimination and D.B = d I, B its points as columns;
    its inverse is present exactly when |det B| = 1, and then it is D."""
    hull, n = p._hull, p.dim
    assert len(hull.facets) == len(hull.offsets) == len(hull.duals) == len(hull.inverses)
    for pts, c, dual, inverse in zip(hull.facets, hull.offsets, hull.duals, hull.inverses):
        assert (dual is not None) == (len(pts) == n and c != 0), (p.name, pts)
        if dual is None:
            assert inverse is None, (p.name, pts)
            continue
        d, rows = dual
        points = [p.vertices[i] for i in pts]
        det = abs(det_over_q(points))
        assert d == det, (p.name, pts)
        product = [[sum(x * y for x, y in zip(row, v)) for v in points] for row in rows]
        assert product == [[d * (i == j) for j in range(n)] for i in range(n)], (p.name, pts)
        assert inverse is (rows if det == 1 else None), (p.name, pts)


@pytest.fixture
def carried_products(monkeypatch):
    """Check every exchange over the points of the walk it runs in, nested
    and factor walks included.  ``divisors`` lists the ``d`` each exchange
    of a dual basis divides by, and ``products`` counts the exchanges of
    products.

    ``_exchange`` pivots the rows of ``D`` (``n`` wide) or of the products
    ``P = D.W`` (one column per point).  An exchange of ``D`` must pivot on
    a column ``y`` of ``D.W`` and give ``D.B = |y_r| I``, where ``B`` is the
    old facet (the points ``D`` maps to ``d`` times a unit vector) with the
    point of ``y`` in place of column ``r``, at ``pos``.  A facet with no
    open ridge stops there; otherwise an exchange of its products follows,
    on the same ``y``, and must take and give ``P_iw = D_i.w``.
    """
    walk, exchange = polytope._pivot_walk, polytope._exchange
    points, last = [], {}
    seen = SimpleNamespace(divisors=[], products=0)

    def recorded_walk(verts, n, walks, seed=None):
        points.append(verts)
        try:
            return walk(verts, n, walks, seed)
        finally:
            points.pop()

    def products(rows):
        return tuple(tuple(sum(x * y for x, y in zip(row, w)) for w in points[-1]) for row in rows)

    def checked_exchange(rows, y, r, pos, d):
        out = exchange(rows, y, r, pos, d)
        pts = points[-1]
        if len(rows[0]) == len(pts):
            assert last["y"] is y, y
            assert rows == products(last["in"]) and out == products(last["out"]), (pts, rows)
            seen.products += 1
            return out
        n = len(rows)
        cols = list(zip(*products(rows)))
        basis = [pts[cols.index(tuple(d * (i == k) for i in range(n)))] for k in range(n)]
        facet = basis[:r] + basis[r + 1 :]
        facet.insert(pos, pts[cols.index(tuple(y))])
        got = [[sum(x * z for x, z in zip(row, w)) for w in facet] for row in out]
        assert got == [[abs(y[r]) * (i == j) for j in range(n)] for i in range(n)], (pts, rows)
        last.update({"y": y, "in": rows, "out": out})
        seen.divisors.append(d)
        return out

    monkeypatch.setattr(polytope, "_pivot_walk", recorded_walk)
    monkeypatch.setattr(polytope, "_exchange", checked_exchange)
    return seen


def random_point_set(rng):
    """n + 1 to n + 5 points of [-2, 2]^n, n in 2..4; in one set of five, one point twice."""
    n = rng.randint(2, 4)
    verts = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 5))]
    if rng.random() < 0.2:
        verts.insert(rng.randrange(len(verts) + 1), rng.choice(verts))
    return n, tuple(verts)


class TestPivotAgainstScan:
    def test_corpus(self, corpus, carried_products):
        # fresh copies, so that the walks run under the fixture
        copies = [FanoPolytope(p.dim, p.vertices, p.name) for _, p in corpus]
        walked = exchanged = 0
        for p in copies:
            before = len(carried_products.divisors)
            facets = whole_walk(p)[0].facets
            exchanged += len(carried_products.divisors) - before
            # one fresh elimination per whole walk; dimension 1 has no walk
            walked += len(facets) - 1 if p.dim > 1 else 0
            assert_walk_matches_oracle(p)
        assert exchanged == walked, (exchanged, walked)
        # facets whose ridges are all closed when popped take no products
        total = len(carried_products.divisors)
        assert 0 < carried_products.products < total, carried_products.products

    @pytest.mark.parametrize(
        "spec", ["product(hexagon,hexagon,hexagon)", "product(simplex:2,hexagon,hexagon)"]
    )
    def test_random_images(self, spec):
        rng = random.Random(spec)
        p = construct(spec)
        for _ in range(10):
            assert_walk_matches_oracle(transformed_copy(p, random_unimodular(p.dim, rng), rng))

    @pytest.mark.parametrize("name", sorted(NON_PRODUCTS))
    def test_non_products(self, name, carried_products):
        dim, verts = NON_PRODUCTS[name]
        p = FanoPolytope(dim, verts, name)
        assert validate_smooth_fano(p).passed
        assert_walk_matches_oracle(p)
        assert carried_products.divisors

    @pytest.mark.parametrize("name", sorted(BAD_INPUTS))
    def test_bad_input_reports_unchanged(self, name):
        dim, verts = BAD_INPUTS[name]
        p = FanoPolytope(dim, verts, name)
        assert not analyze(p).valid
        assert_walk_matches_oracle(p)

    def test_random_point_sets(self, carried_products):
        rng = random.Random(6)
        checked = non_simplicial = repeated = 0
        while checked < 300:
            n, verts = random_point_set(rng)
            if rank_over_q([[a - b for a, b in zip(v, verts[0])] for v in verts[1:]]) < n:
                continue
            p = FanoPolytope(n, verts)
            assert_walk_matches_oracle(p)
            checked += 1
            non_simplicial += any(len(pts) > n for pts in p._hull.facets)
            repeated += len(set(verts)) < len(verts)
        # the sample must reach the walk one dimension down, repeated points
        # and dual-basis exchanges that divide by d > 1
        assert non_simplicial > 150 and repeated > 30, (non_simplicial, repeated)
        divided = sum(d > 1 for d in carried_products.divisors)
        assert divided > 1000, divided


def splits(p):
    """True iff the hull of ``p`` is joined from its factors' walks."""
    return polytope._free_sum_hull(p.vertices, polytope._seed(p.vertices, p.dim), {}) is not None


class TestFreeSumHull:
    """The hull joined from the factors must be the whole walk's record,
    facets, offsets and dual bases alike, and the whole walk must find the
    subset scan's facets, normals included."""

    def assert_hull_is_whole_walks(self, p):
        lattice, normals = whole_walk(p)
        assert p._hull == lattice, p.name
        hyperplanes = brute_force_hull(p.vertices, p.dim)[0]
        assert list(zip(lattice.facets, normals, lattice.offsets)) == hyperplanes, p.name

    def test_corpus_and_images(self, corpus):
        rng = random.Random(17)
        members = [p for _, p in corpus] + [construct("product(simplex:2,hexagon,simplex:1)")]
        square = free_sum(simplex(1), simplex(1)).normal_form()
        for p in members:
            # the free sums: the products and the square among the polygons
            free = p.name.startswith("product(") or p.normal_form() == square
            images = [transformed_copy(p, random_unimodular(p.dim, rng), rng) for _ in range(2)]
            for q in [FanoPolytope(p.dim, p.vertices, p.name)] + images:
                self.assert_hull_is_whole_walks(q)
                assert splits(q) is free, q.name

    def test_three_factors(self, monkeypatch):
        walks = []
        walk = polytope._pivot_walk

        def recorded_walk(verts, n, shared, seed=None):
            walks.append((n, len(verts)))
            return walk(verts, n, shared, seed)

        monkeypatch.setattr(polytope, "_pivot_walk", recorded_walk)
        p = construct("product(simplex:2,hexagon,simplex:1)")
        assert len(p._hull.facets) == 3 * 6 * 2
        # one walk per factor, in the order of their least vertices
        assert walks == [(2, 3), (2, 6), (1, 2)]

    def test_rings(self):
        rings = [FanoPolytope(2, ring, str(ring)) for ring in _rings(2)]
        assert len(rings) == 103
        for p in rings:
            self.assert_hull_is_whole_walks(p)
        # the rings that split are the images of the square
        square = free_sum(simplex(1), simplex(1)).normal_form()
        squares = [p.normal_form() == square for p in rings]
        assert any(squares) and list(map(splits, rings)) == squares

    @pytest.mark.parametrize("name", sorted(NON_PRODUCTS))
    def test_non_products_form_one_component(self, name):
        p = FanoPolytope(*NON_PRODUCTS[name], name)
        self.assert_hull_is_whole_walks(p)
        assert not splits(p)

    def assert_report_is_whole_walks(self, p):
        whole = FanoPolytope(p.dim, p.vertices, p.name)
        whole.__dict__["_hull"] = whole_walk(whole)[0]
        assert p._hull == whole._hull, p.name
        got, want = (json.dumps(validation_to_dict(validate_smooth_fano(q))) for q in (p, whole))
        assert got == want, p.name
        assert not validate_smooth_fano(p).passed

    @pytest.mark.parametrize("name", sorted(BAD_POLYGONS))
    def test_bad_factor_reports_whole_walks(self, name):
        """A free sum with one bad factor is decided by the whole walk, so its
        report is the whole walk's byte for byte, in either factor order."""
        bad = FanoPolytope(2, BAD_POLYGONS[name], name)
        for p in (free_sum(hexagon(), bad), free_sum(bad, hexagon())):
            self.assert_report_is_whole_walks(p)

    def test_first_facet_beyond_the_origin(self):
        # an image of T + T, T = conv((1, 0), (0, 1), (1, 1)), whose first
        # facet is unimodular at offset -1, so the factors cannot share it
        verts = ((1, 2, -1, 1), (-1, 0, 2, 0), (0, 2, 1, 1), (0, 1, 0, 0), (0, 2, 0, 1), (0, 3, 0, 1))
        p = FanoPolytope(4, verts, "T + T beyond the origin")
        (_, _, c), (d, _), _ = polytope._seed(p.vertices, p.dim)
        assert (c, d) == (-1, 1)
        self.assert_report_is_whole_walks(p)


@pytest.fixture
def lifts(monkeypatch):
    """Counts the rows that joined records lift, ``_lift`` calls, which
    happen only while a joined record forms its inverses."""
    count = SimpleNamespace(calls=0)
    lift = polytope._lift

    def counted(rows, e):
        count.calls += 1
        return lift(rows, e)

    monkeypatch.setattr(polytope, "_lift", counted)
    return count


class TestJoinedInversesOnDemand:
    """A joined record forms its inverses only when they are read, from its
    factors, and then equals the whole walk's record."""

    def members(self):
        rng = random.Random(19)
        for spec in ("product(hexagon,hexagon,hexagon)", "product(simplex:2,hexagon,simplex:1)"):
            p = construct(spec)
            yield p
            for _ in range(2):
                yield transformed_copy(p, random_unimodular(p.dim, rng), rng)

    def test_analyze_forms_no_joined_inverse(self, lifts):
        for p in self.members():
            report = analyze(p)
            hull = p._hull
            assert report.valid and hull.factors, p.name
            assert lifts.calls == 0, p.name
            assert "inverses" not in hull.__dict__ and "duals" not in hull.__dict__, p.name
            # read now: formed from the factors, and the whole walk's
            assert None not in hull.inverses and lifts.calls > 0, p.name
            assert hull == whole_walk(p)[0], p.name
            lifts.calls = 0

    def test_report_reads_no_facet_of_a_joined_record(self):
        """Validation reads the shape conditions and unimodularity off the
        factors: every facet of the joined record is then replaced by one
        of more than n points through the origin, and the report is
        unchanged."""
        for p in self.members():
            want = validate_smooth_fano(FanoPolytope(p.dim, p.vertices, p.name))
            hull = p._hull
            bad = polytope.FaceLattice(
                (tuple(range(p.dim + 1)),) * len(hull.facets),
                (0,) * len(hull.offsets),
                hull.factors,
            )
            bad.__dict__["inverses"] = (None,) * len(hull.facets)
            p.__dict__["_hull"] = bad
            assert validate_smooth_fano(p) == want and want.passed, p.name

    def test_joined_facets_in_product_order(self):
        """A joined record lists the joins of its factors' facets in the
        product order of those facets, last factor fastest, and pairs each
        with its inverse: it equals the whole walk's record as a set, though
        on a seeded image not position by position."""
        unsorted = 0
        for p in self.members():
            hull, whole = p._hull, whole_walk(p)[0]
            joins = [
                tuple(sorted(f.points[i] for f, pts in zip(hull.factors, choice) for i in pts))
                for choice in product(*(f.lattice.facets for f in hull.factors))
            ]
            assert list(hull.facets) == joins, p.name
            assert hull == whole and sorted(hull.facets) == list(whole.facets), p.name
            unsorted += hull.facets != whole.facets
        assert unsorted, "every member's joins came out sorted"

    def test_equality_pairs_each_facet_with_its_dual_basis(self):
        p = next(q for q in self.members() if q.name.endswith("~"))
        hull = p._hull
        facets, offsets, duals = hull.facets, hull.offsets, list(hull.duals)
        shuffled = list(zip(facets, offsets, duals))
        random.Random(3).shuffle(shuffled)
        assert polytope.FaceLattice.walked(*map(tuple, zip(*shuffled))) == hull
        d, rows = duals[0]
        changed = duals[:]
        changed[0] = d, (tuple(-x for x in rows[0]),) + rows[1:]
        swapped = duals[:]
        swapped[0], swapped[1] = duals[1], duals[0]
        for other in (changed, swapped):
            assert polytope.FaceLattice.walked(facets, offsets, tuple(other)) != hull

    def test_shape_scans_a_record_without_factors(self):
        p = construct("product(hexagon,hexagon)")
        hull = whole_walk(p)[0]
        # the whole walk's facets with one point dropped from all of them: that
        # point lies on no facet
        p.__dict__["_hull"] = polytope.FaceLattice.walked(
            tuple(tuple(i for i in f if i != 0) for f in hull.facets), hull.offsets, hull.duals
        )
        extremal = validate_smooth_fano(p).conditions[5]
        assert extremal.name == "vertices_extremal" and not extremal.passed


@pytest.fixture
def walked(monkeypatch):
    """Records the points of every ``_pivot_walk`` call, nested and factor
    walks included, and the record it returns."""
    calls = []
    walk = polytope._pivot_walk

    def recorded_walk(verts, n, walks, seed=None):
        out = walk(verts, n, walks, seed)
        calls.append((tuple(verts), out[0]))
        return out

    monkeypatch.setattr(polytope, "_pivot_walk", recorded_walk)
    return calls


def test_nested_walks_run_once_per_point_list(walked):
    """Each point list is walked at most once per hull: the twisted lift of
    hexagon^3 walks 217 distinct point lists, where walking every facet
    one dimension down afresh took 7,021 walks, and its report is unchanged."""
    report = validate_smooth_fano(twisted_lift(3))
    assert [(c.name, c.detail) for c in report.conditions if not c.passed] == [
        ("simplicial", "facet hyperplane with extra vertices, e.g. (0, 1, 2, 6, 7, 12, 13) + (18,)")
    ]
    assert len(walked) == len({verts for verts, _ in walked}) == 217


@pytest.mark.parametrize(
    "dim, verts",
    [BAD_INPUTS["hexagon^2 plus a point"], (4, construct("product(hexagon,hexagon)").vertices)],
    ids=["hexagon^2 plus a point", "hexagon^2"],
)
def test_fresh_polytopes_share_no_walk(walked, dim, verts):
    """The walks are shared within one hull, never between two polytopes."""
    FanoPolytope(dim, verts)._hull
    first = walked[:]
    walked.clear()
    FanoPolytope(dim, verts)._hull
    assert [v for v, _ in walked] == [v for v, _ in first] and walked
    assert not {id(r) for _, r in first} & {id(r) for _, r in walked}


@pytest.fixture
def walk_pivots(monkeypatch):
    """Counts the widest pivots of the facet walk, leaving out those that
    ``_first_facet`` takes to reach the first facet."""
    pivot, first = polytope._widest_pivot, polytope._first_facet
    count = SimpleNamespace(pivots=0)

    def counted_pivot(*args):
        count.pivots += 1
        return pivot(*args)

    def uncounted_first(*args):
        before = count.pivots
        try:
            return first(*args)
        finally:
            count.pivots = before

    monkeypatch.setattr(polytope, "_widest_pivot", counted_pivot)
    monkeypatch.setattr(polytope, "_first_facet", uncounted_first)
    return count


@pytest.fixture
def eliminations(monkeypatch):
    """Counts the fresh eliminations of the hull, its ``dual_basis`` calls."""
    count = SimpleNamespace(calls=0)
    eliminate = polytope.dual_basis

    def counted(m):
        count.calls += 1
        return eliminate(m)

    monkeypatch.setattr(polytope, "dual_basis", counted)
    return count


def test_simplicial_walk_pivots_only_toward_new_facets(walk_pivots, eliminations):
    """On a simplicial hull every pivot finds a facet not yet known, so the
    whole walk takes ``facets - 1`` of them, where crossing every ridge would
    take ``facets * n / 2``, and one elimination, for its first facet."""
    rng = random.Random(12)
    hexagon3 = construct("product(hexagon,hexagon,hexagon)")
    hulls = [transformed_copy(hexagon3, random_unimodular(6, rng), rng) for _ in range(5)]
    hulls.append(simplex(13))
    hulls += [FanoPolytope(dim, verts, name) for name, (dim, verts) in NON_PRODUCTS.items()]
    for p in hulls:
        before, eliminated = walk_pivots.pivots, eliminations.calls
        facets = whole_walk(p)[0].facets
        assert all(len(pts) == p.dim for pts in facets), p.name
        assert walk_pivots.pivots - before == len(facets) - 1, p.name
        assert eliminations.calls - eliminated == 1, p.name


def test_free_sum_walks_only_its_factors(walk_pivots, eliminations):
    """The hull of hexagon^3 walks one hexagon from its share of the first
    facet, as its three factors have the same points in their own
    coordinates: 5 pivots for 216 facets, and no elimination past the first
    facet's, in every seeded image."""
    rng = random.Random(16)
    hexagon3 = construct("product(hexagon,hexagon,hexagon)")
    images = [transformed_copy(hexagon3, random_unimodular(6, rng), rng) for _ in range(5)]
    for p in [FanoPolytope(6, hexagon3.vertices, hexagon3.name)] + images:
        before, eliminated = walk_pivots.pivots, eliminations.calls
        assert len(p._hull.facets) == 216, p.name
        assert walk_pivots.pivots - before == 5, p.name
        assert eliminations.calls - eliminated == 1, p.name
