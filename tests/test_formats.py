import json

import pytest

from fanorank import formats
from fanorank.bounds import analyze
from fanorank.formats import (
    FamilySpecError,
    ParseError,
    ShapeError,
    batch_to_dict,
    construct,
    parse_polytopes,
    polytope_to_text,
    polytopes_to_text,
    report_json,
    report_to_dict,
)
from fanorank.polytope import FanoPolytope, free_sum, hexagon, simplex


class TestParse:
    def test_single_block(self):
        text = "polytope P2\ndim 2\nv 1 0\nv 0 1\nv -1 -1\nend\n"
        (p,) = parse_polytopes(text)
        assert p.name == "P2"
        assert p.vertices == simplex(2).vertices

    def test_two_blocks_in_order(self):
        text = (
            "polytope a\ndim 1\nv 1\nv -1\nend\n"
            "polytope b\ndim 2\nv 1 0\nv 0 1\nv -1 -1\nend\n"
        )
        ps = parse_polytopes(text)
        assert [p.name for p in ps] == ["a", "b"]

    def test_comments_and_blank_lines(self):
        text = "# header\n\npolytope x # trailing\ndim 1\n v 1\nv -1\nend\n"
        (p,) = parse_polytopes(text)
        assert p.name == "x"

    def test_dimension_mismatch_is_shape_error(self):
        text = "polytope bad\ndim 2\nv 1\nend\n"
        with pytest.raises(ShapeError) as err:
            parse_polytopes(text)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "text, line",
        [
            ("polytope p\ndim 0_2\nv 1 0\nend\n", 2),
            ("polytope p\ndim ٢\nv 1 0\nend\n", 2),
            ("polytope p\ndim 2\nv 1_0 0\nv 0 1\nv -1 -1\nend\n", 3),
            ("polytope p\ndim 2\nv 1 0\nv ١ 1\nv -1 -1\nend\n", 4),
        ],
    )
    def test_integers_are_ascii_numerals(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_polytopes(text)
        assert err.value.line == line

    def test_signed_numerals(self):
        (p,) = parse_polytopes("polytope p\ndim +2\nv +1 0\nv 0 1\nv -1 -01\nend\n")
        assert p.dim == 2
        assert p.vertices == simplex(2).vertices

    def test_unknown_keyword(self):
        with pytest.raises(ParseError):
            parse_polytopes("polytope p\ndim 1\nw 1\nend\n")

    def test_duplicate_names_rejected(self):
        text = "polytope p\ndim 1\nv 1\nv -1\nend\npolytope p\ndim 1\nv 1\nv -1\nend\n"
        with pytest.raises(ParseError):
            parse_polytopes(text)

    def test_unterminated_block(self):
        with pytest.raises(ParseError) as info:
            parse_polytopes("polytope p\ndim 1\nv 1\n")
        assert info.value.line == 1
        # the line of the ``polytope`` keyword that opened the block
        with pytest.raises(ParseError) as info:
            parse_polytopes("polytope a\ndim 1\nv 1\nv -1\nend\n\n# b\npolytope b\ndim 1\nv 1\n")
        assert info.value.line == 8 and str(info.value) == "<string>:8: unterminated block 'b'"

    def test_round_trip_identity(self):
        for p in (simplex(3), hexagon(), construct("product(simplex:1,hexagon)")):
            (again,) = parse_polytopes(polytope_to_text(p))
            assert again.vertices == p.vertices
            assert again.dim == p.dim
            assert again.name == p.name

    def test_multi_round_trip(self):
        ps = [simplex(1), hexagon()]
        again = parse_polytopes(polytopes_to_text(ps))
        assert [q.vertices for q in again] == [p.vertices for p in ps]


class TestConstruct:
    def test_sharp_example(self):
        p = construct("product(simplex:2,hexagon)")
        assert p.dim == 4 and len(p.vertices) == 9
        assert p.name == "product(simplex:2,hexagon)"

    def test_simplex(self):
        assert construct("simplex:5").vertices == simplex(5).vertices

    def test_triple_product(self):
        p = construct("product(simplex:1,simplex:1,simplex:1)")
        assert p.dim == 3 and len(p.vertices) == 6

    def test_nested_products(self):
        p = construct("product(product(simplex:1,simplex:1),hexagon)")
        assert p.dim == 4 and len(p.vertices) == 10

    def test_whitespace_tolerated(self):
        p = construct(" product( simplex:2 , hexagon ) ")
        assert p.name == "product(simplex:2,hexagon)"

    @pytest.mark.parametrize(
        "spec, name, expected",
        [
            ("simplex:1", "simplex:1", simplex(1)),
            (
                " product( product(simplex:1 ,hexagon), simplex:2 ) ",
                "product(product(simplex:1,hexagon),simplex:2)",
                free_sum(free_sum(simplex(1), hexagon()), simplex(2)),
            ),
            (
                "product(simplex:1,hexagon,simplex:1)",
                "product(simplex:1,hexagon,simplex:1)",
                free_sum(free_sum(simplex(1), hexagon()), simplex(1)),
            ),
        ],
    )
    def test_names_and_vertices(self, spec, name, expected):
        p = construct(spec)
        assert (p.dim, p.vertices, p.name) == (expected.dim, expected.vertices, name)

    @pytest.mark.parametrize(
        "bad",
        [
            "simplex",
            "simplex:",
            "simplex:0",
            "cube:3",
            "product(simplex:1)",
            "product(simplex:1,simplex:1",
            "hexagon extra",
            # dimensions are ASCII numerals, as in the text format
            "simplex:\u00b3",
            "simplex:\u0663",
            "simplex:3\u0663",
            "product(simplex:\uff12,hexagon)",
        ],
    )
    def test_malformed_specs(self, bad):
        with pytest.raises(FamilySpecError):
            construct(bad)

    @pytest.mark.parametrize(
        "spec",
        [
            "simplex:" + "9" * 5000,  # past the interpreter's digit limit for int()
            "simplex:99999999999999999999",
            "simplex:3162",
            "product(simplex:2000,simplex:2000)",
            "product(hexagon,simplex:" + "9" * 5000 + ")",
        ],
        ids=["5000 digits", "20 digits", "simplex:3162", "simplex:2000 twice", "factor of 5000 digits"],
    )
    def test_oversized_specs_refused_before_building(self, monkeypatch, spec):
        def forbidden(*args):
            raise AssertionError("built a polytope of an oversized spec")

        for name in ("simplex", "hexagon", "free_sum"):
            monkeypatch.setattr(formats, name, forbidden)
        with pytest.raises(FamilySpecError, match="over 10000000"):
            construct(spec)

    @pytest.mark.parametrize("leaf", ["hexagon", "simplex:1"])
    def test_nesting_deeper_than_the_limit_refused(self, leaf):
        # 1200 levels used to end in a RecursionError
        for depth in (formats.MAX_SPEC_DEPTH + 1, 1200):
            spec = "product(" * depth + leaf + f",{leaf})" * depth
            with pytest.raises(FamilySpecError, match=f"nested {depth} deep"):
                construct(spec)
        with pytest.raises(FamilySpecError, match="nested 1200 deep"):
            construct("product(" * 1200 + leaf)

    def test_nesting_up_to_the_limit_builds(self):
        depth = formats.MAX_SPEC_DEPTH
        p = construct("product(" * depth + "simplex:1" + ",simplex:1)" * depth)
        assert (p.dim, len(p.vertices)) == (depth + 1, 2 * (depth + 1))
        assert p.name == "product(" * depth + "simplex:1" + ",simplex:1)" * depth

    def test_size_limit_is_on_dimension_times_vertex_count(self, monkeypatch):
        _, dim, count, _ = formats._parse_spec("simplex:3000", 0)
        assert dim * count == 9_003_000 <= formats.MAX_SPEC_ENTRIES
        monkeypatch.setattr(formats, "MAX_SPEC_ENTRIES", 12)
        for spec in ("simplex:3", "hexagon", "product(simplex:1,simplex:1)"):
            p = construct(spec)
            assert p.dim * len(p.vertices) <= 12, spec
        for spec in ("simplex:4", "product(hexagon,simplex:1)", "simplex:" + "0" * 5000 + "4"):
            with pytest.raises(FamilySpecError):
                construct(spec)


class TestReports:
    def test_hexagon_casagrande_entry(self):
        data = report_to_dict(analyze(hexagon()))
        entry = next(c for c in data["checks"] if c["name"] == "casagrande")
        assert entry["bound"] == 4
        assert entry["rho"] == 4
        assert entry["satisfied"] is True

    def test_simplex_minimal_component_entry(self):
        data = report_to_dict(analyze(simplex(2)))
        assert data["minimal_components"] == [
            {"indices": [0, 1, 2], "degree": 3, "codegree": 0}
        ]

    def test_invalid_input_record(self):
        data = report_to_dict(analyze(FanoPolytope(2, ((2, 0), (0, 1), (-1, -1)), "bad")))
        assert data["valid"] is False
        assert data["primitive_relations"] == []
        assert data["minimal_components"] == []
        assert data["checks"] == []

    def test_report_json_round_trips_through_json(self):
        report = analyze(simplex(2))
        data = json.loads(report_json(report))
        assert data == report_to_dict(report)
        assert data["picard_rank"] == 1

    def test_serialization_is_stable(self):
        a = json.dumps(report_to_dict(analyze(hexagon())), sort_keys=True)
        b = json.dumps(report_to_dict(analyze(hexagon())), sort_keys=True)
        assert a == b


class TestBatchAggregation:
    def test_summary_counts(self):
        reports = [
            analyze(simplex(2)),
            analyze(hexagon()),
            analyze(FanoPolytope(2, ((2, 0), (0, 1), (-1, -1)), "bad")),
        ]
        summary = batch_to_dict(reports)["summary"]
        assert summary["polytopes"] == 3
        assert summary["validation_failures"] == 1
        assert summary["theorem_violations"] == 0
        assert summary["conjecture_violations"] == 0
        # the hexagon's literal cfh and codegree-1 failures land here
        assert summary["out_of_range_failures"] == 6
