"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test prints a single PASS line once its assertions hold, so a
verbose run doubles as a checklist.  Tolerances are exact (integer
equality) except where a wall-clock budget is part of the criterion.
"""

import json
import random
import time

import pytest

from fanorank import polytope
from fanorank.bounds import (
    AnalysisReport,
    BoundCheck,
    analyze,
    cfh_rank_bound,
)
from fanorank.cli import exit_code, main
from fanorank.fan import Fan
from fanorank.formats import construct, polytopes_to_text
from fanorank.mori import (
    count_pc_extensions,
    lift_zero_sum_collections,
    primitive_collections,
    primitive_relation,
    verify_reid_cones,
)
from fanorank.polytope import (
    FanoPolytope,
    ValidationReport,
    hexagon,
    simplex,
    validate_smooth_fano,
)

from helpers import brute_force_primitive_collections, random_unimodular, transformed_copy


def _report(label):
    print(f"acceptance {label}: PASS")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, corpus):
    root = tmp_path_factory.mktemp("corpus")
    (root / "corpus.poly").write_text(
        polytopes_to_text([p for _, p in corpus]), encoding="utf-8"
    )
    return root


def test_criterion_01_sharp_family():
    for n in range(3, 9):
        start = time.perf_counter()
        p = construct(f"product(simplex:{n - 2},hexagon)")
        rep = analyze(p)
        elapsed = time.perf_counter() - start
        assert rep.valid
        assert rep.picard_rank == 5, n
        codeg2 = [c for c in rep.components if c.codegree == 2]
        assert codeg2, n
        weak2 = [
            c
            for c in rep.checks
            if c.name == "weak" and c.component is not None and c.component.codegree == 2
        ]
        assert weak2, n
        for check in weak2:
            assert (check.rho, check.bound, check.satisfied) == (5, 5, True), n
        assert elapsed < 1.0, f"n={n} took {elapsed:.2f}s"
    _report("01 sharp family rho=5 with codegree-2 component, n=3..8")


def test_criterion_02_casagrande(corpus_fans, corpus_dir, capsys):
    for name, p, fan in corpus_fans:
        rep = analyze(p)
        casa = next(c for c in rep.checks if c.name == "casagrande")
        assert casa.satisfied, name
        assert rep.picard_rank <= 2 * rep.dim, name
    code = main(["batch", str(corpus_dir)])
    capsys.readouterr()
    assert code == 0
    # a violating check must force a nonzero exit
    fake_validation = ValidationReport("fake", ())
    fake = AnalysisReport(
        "fake", 2, 7, 5, True, fake_validation, (), (),
        (BoundCheck("casagrande", None, 4, 5, False),),
    )
    assert exit_code([(fake.valid, fake.checks)]) == 2
    _report("02 casagrande bound holds corpus-wide and violations exit nonzero")


def test_criterion_03_codegree_two_cap(corpus_fans):
    seen = 0
    for name, p, fan in corpus_fans:
        rep = analyze(p)
        if any(c.codegree == 2 for c in rep.components):
            seen += 1
            assert rep.picard_rank <= 5, name
    assert seen > 0
    _report(f"03 rank cap 5 on all {seen} members with a codegree-2 component")


def test_criterion_04_cfh_specialization_values():
    expected = {3: 6, 4: 5, 5: 5, 6: 5, 7: 5, 8: 6, 9: 6, 10: 6}
    for n, value in expected.items():
        assert cfh_rank_bound(n, n - 1) == value, n
        assert (n * (n + 1)) // (2 * (n - 2)) == value, n
    _report("04 cfh codegree-2 specialization values for n=3..10")


def test_criterion_05_two_d_oracle():
    from fanorank.enum2d import enumerate_2d

    start = time.perf_counter()
    box1, *bigger = [enumerate_2d(b) for b in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - start
    assert [len(p.vertices) for p in box1] == [3, 4, 4, 5, 6]
    for classes in bigger:
        assert [p.normal_form() for p in box1] == [p.normal_form() for p in classes]
    assert box1[-1].normal_form() == hexagon().normal_form()
    assert elapsed < 10.0, f"enumeration took {elapsed:.2f}s"
    _report("05 exhaustive 2D classification: 5 classes, stable at boxes 2 to 4")


def test_criterion_06_collection_oracle_equivalence(corpus_fans):
    checked = 0
    for name, p, fan in corpus_fans:
        if len(fan.generators) > 12:
            continue
        checked += 1
        assert primitive_collections(fan) == brute_force_primitive_collections(fan), name
    assert checked > 0
    _report(f"06 transversal collections equal brute force on {checked} members")


def test_criterion_07_reid_verification(sweep_fans):
    checked = 0
    for name, p, fan in sweep_fans:
        for pc in primitive_collections(fan):
            rel = primitive_relation(fan, pc)
            if rel.degree == 1:
                checked += 1
                assert verify_reid_cones(fan, rel) == (), (name, pc)
    assert checked > 0
    _report(f"07 reid cone checks clean on {checked} degree-1 relations")


def test_criterion_08_single_ray_extension_bound(corpus_fans):
    for name, p, fan in corpus_fans:
        for v in range(len(fan.generators)):
            assert count_pc_extensions(fan, (v,)) <= 3, (name, v)
    hex_fan = Fan.from_polytope(hexagon())
    for v in range(6):
        assert count_pc_extensions(hex_fan, (v,)) == 3, v
    _report("08 single-ray extension count <= 3 corpus-wide, = 3 on the hexagon")


def test_criterion_09_star_quotient():
    fan = Fan.from_polytope(construct("product(simplex:2,simplex:1)"))
    qfan, lift = fan.star_quotient((3,))
    induced = FanoPolytope(qfan.dim, qfan.generators, "induced")
    assert induced.normal_form() == simplex(2).normal_form()
    lifts = lift_zero_sum_collections(fan, (3,))
    assert lifts and all(l.forms_cone for l in lifts)
    for l in lifts:
        assert fan.is_cone(lift.center + l.lifted)
    _report("09 star quotient of the line factor is the plane fan and lifts to cones")


def test_criterion_10_batch_determinism(corpus_dir, capsys):
    outputs = []
    for jobs in ("1", "4"):
        code = main(["batch", str(corpus_dir), "--jobs", jobs])
        out = capsys.readouterr().out
        assert code == 0
        outputs.append(out.encode("utf-8"))
    assert outputs[0] == outputs[1]
    summary = json.loads(outputs[0])["summary"]
    assert summary["theorem_violations"] == 0
    _report("10 batch output byte-identical across --jobs settings")


def test_criterion_11_hexagon_power_four():
    p = construct("product(hexagon,hexagon,hexagon,hexagon)")
    start = time.perf_counter()
    facets = p.face_lattice.facets
    elapsed = time.perf_counter() - start
    assert (p.dim, len(p.vertices), len(facets)) == (8, 24, 1296)
    assert validate_smooth_fano(p).passed
    assert elapsed < 2.0, f"face lattice took {elapsed:.2f}s"
    _report("11 hexagon^4 validates with 1296 facets, face lattice in under 2 s")


def test_criterion_12_non_simplicial_rejection_budget():
    p = construct("product(simplex:2,hexagon,hexagon,hexagon)")
    q = FanoPolytope(p.dim, p.vertices + ((1,) * p.dim,), "plus a point")
    start = time.perf_counter()
    report = validate_smooth_fano(q)
    elapsed = time.perf_counter() - start
    assert report.failures == ("simplicial",)
    assert report.conditions[4].detail == (
        "facet hyperplane with extra vertices, e.g. (0, 1, 3, 4, 12, 13, 18, 19) + (21,)"
    )
    assert elapsed < 10.0, f"validation took {elapsed:.2f}s"
    _report("12 simplex:2 x hexagon^3 plus (1,...,1) rejected as non-simplicial in under 10 s")


def test_criterion_13_hexagon_power_five():
    p = construct("product(hexagon,hexagon,hexagon,hexagon,hexagon)")
    start = time.perf_counter()
    report = analyze(p)
    elapsed = time.perf_counter() - start
    assert report.valid
    assert (report.dim, report.picard_rank, len(p.face_lattice.facets)) == (10, 20, 7776)
    degrees = sorted(r.degree for r in report.relations)
    assert degrees == [1] * 30 + [2] * 15
    assert [(c.degree, c.codegree) for c in report.components] == [(2, 9)] * 15
    assert elapsed < 0.5, f"analyze took {elapsed:.2f}s"
    _report("13 hexagon^5 analyzed: 7776 facets, rho 20, 45 relations, in under 0.5 s")


def test_criterion_14_normal_form_budget():
    p = construct("product(hexagon,hexagon,hexagon)")
    rng = random.Random(14)
    q = transformed_copy(p, random_unimodular(p.dim, rng), rng)
    start = time.perf_counter()
    form = q.normal_form()
    elapsed = time.perf_counter() - start
    assert form == p.normal_form()
    assert elapsed < 1.0, f"normal form took {elapsed:.2f}s"
    _report("14 normal form of a hexagon^3 image equals the hexagon^3 form, in under 1 s")


def test_criterion_15_hexagon_power_four_normal_form():
    p = construct("product(hexagon,hexagon,hexagon,hexagon)")
    rng = random.Random(15)
    q = transformed_copy(p, random_unimodular(p.dim, rng), rng)
    start = time.perf_counter()
    form = q.normal_form()
    elapsed = time.perf_counter() - start
    assert form == p.normal_form()
    assert elapsed < 5.0, f"normal form took {elapsed:.2f}s"
    _report("15 normal form of a hexagon^4 image equals the hexagon^4 form, in under 5 s")


def test_criterion_16_whole_walk_hexagon_power_five():
    # criteria 11 and 13 split the free sum; this one walks all of its facets
    p = construct("product(hexagon,hexagon,hexagon,hexagon,hexagon)")
    start = time.perf_counter()
    lattice, normals = polytope._pivot_walk(p.vertices, p.dim, {})
    elapsed = time.perf_counter() - start
    facets, offsets, duals = lattice.facets, lattice.offsets, lattice.duals
    assert len(facets) == len(normals) == len(offsets) == len(duals) == 7776
    assert all(
        len(pts) == 10 and c == 1 and dual[0] == 1 for pts, c, dual in zip(facets, offsets, duals)
    )
    assert elapsed < 2.0, f"whole walk took {elapsed:.2f}s"
    _report("16 whole facet walk of hexagon^5: 7776 unimodular facets in under 2 s")


def test_criterion_17_hexagon_power_six_image_face_lattice():
    p = construct("product(hexagon,hexagon,hexagon,hexagon,hexagon,hexagon)")
    rng = random.Random(17)
    q = transformed_copy(p, random_unimodular(p.dim, rng), rng)
    start = time.perf_counter()
    lattice = q.face_lattice
    elapsed = time.perf_counter() - start
    assert len(lattice.facets) == 46656
    assert None not in lattice.inverses
    assert elapsed < 2.0, f"face lattice took {elapsed:.2f}s"
    _report("17 face lattice of a hexagon^6 image: 46656 facets in under 2 s")


def test_criterion_18_whole_fan_collections_hexagon_power_five():
    # analyze enumerates a free sum per factor; this one runs the whole face fan
    p = construct("product(hexagon,hexagon,hexagon,hexagon,hexagon)")
    fan = Fan.from_polytope(p)
    start = time.perf_counter()
    relations = tuple(primitive_relation(fan, pc) for pc in primitive_collections(fan))
    elapsed = time.perf_counter() - start
    assert (len(fan.max_cones), len(relations)) == (7776, 45)
    assert relations == analyze(p).relations
    assert elapsed < 1.0, f"collections and relations took {elapsed:.2f}s"
    _report("18 whole-fan collections and relations of hexagon^5: 45 in under 1 s")


def test_criterion_19_hexagon_power_six_image_analyze():
    p = construct("product(hexagon,hexagon,hexagon,hexagon,hexagon,hexagon)")
    rng = random.Random(19)
    q = transformed_copy(p, random_unimodular(p.dim, rng), rng)
    start = time.perf_counter()
    report = analyze(q)
    elapsed = time.perf_counter() - start
    assert report.valid and len(report.relations) == 54
    assert len(q._hull.facets) == 46656 and q._hull.factors
    # analyze reads no inverse of the joined record, so none is formed
    assert "inverses" not in q._hull.__dict__ and "duals" not in q._hull.__dict__
    assert elapsed < 0.25, f"analyze took {elapsed:.2f}s"
    _report("19 hexagon^6 image analyzed: 54 relations, no joined inverse formed, in under 0.25 s")
