"""The oracle must accept real outputs and catch perturbed ones."""

import dataclasses
import json
import random

import pytest

import fanorank
import fanorank.cli
import inputs as gen
import oracle
import workloads
from run import Stats


@pytest.fixture
def analyze_case():
    factors = ("simplex:1", "hexagon")
    name = gen.product_name(factors)
    inp = gen.make_input(name, factors, random.Random("test"), copies=1)
    expect = oracle.expect_product(name, factors)
    slot = workloads._analyze_slot(fanorank, inp, expect)
    return slot, slot.run(0)


def test_closed_form_invariants():
    e = oracle.expect_product("x", ("hexagon", "hexagon", "hexagon"))
    assert (e.dim, e.vertex_count, e.facets, e.faces) == (6, 18, 216, 13**3)
    assert len(e.relations) == 27
    e = oracle.expect_product("x", ("simplex:6", "hexagon"))
    assert (e.facets, e.faces) == (42, 127 * 13)
    assert sum(1 for r in e.relations if not r[1]) == 4


def test_real_report_passes(analyze_case):
    slot, out = analyze_case
    assert slot.check(0, out, None) == []


def _perturbed(report):
    rel = report.relations[0]
    bad = dataclasses.replace(rel, degree=rel.degree + 1)
    return dataclasses.replace(report, relations=(bad,) + report.relations[1:])


def test_perturbed_report_raises_error_rate(analyze_case):
    slot, (p, report) = analyze_case
    stats = Stats()
    stats.record(slot.check(0, (p, report), None))
    stats.record(slot.check(0, (p, _perturbed(report)), None))
    assert stats.attempted == 2
    assert stats.failed / stats.attempted > 0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["primitive_relations"][0]["rhs"].append([0, 1]),
        lambda d: d["primitive_relations"].pop(),
        lambda d: d["minimal_components"].pop(),
        lambda d: d["checks"][0].update(bound=d["checks"][0]["bound"] + 1),
        lambda d: d.update(picard_rank=d["picard_rank"] + 1),
    ],
)
def test_each_field_is_checked(analyze_case, mutate):
    slot, (p, report) = analyze_case
    doc = oracle.plain_report(report)
    mutate(doc)
    expect = oracle.expect_product(report.name, ("simplex:1", "hexagon"))
    assert oracle.check_report(expect, doc, p.vertices)


def test_facet_and_face_counts_are_checked(analyze_case):
    slot, (p, report) = analyze_case
    expect = oracle.expect_product(report.name, ("simplex:1", "hexagon"))
    doc = oracle.plain_report(report)
    assert oracle.check_report(expect, doc, p.vertices, facets=12, faces=39) == []
    assert oracle.check_report(expect, doc, p.vertices, facets=11)
    assert oracle.check_report(expect, doc, p.vertices, faces=40)


def test_batch_check_covers_invalid_blocks(tmp_path):
    rng = random.Random("batch")
    corpus = gen.corpus_inputs(rng, copies=1)
    chosen = [i for i in corpus if i.dim <= 3][:6] + [i for i in corpus if i.condition]
    expects = [
        oracle.expect_invalid(i.name, i.dim, len(i.copies[0]), i.condition)
        if i.condition
        else oracle.expect_product(i.name, i.factors)
        for i in chosen
    ]
    path = tmp_path / "c.poly"
    path.write_text(gen.poly_text(chosen, 0))
    out = tmp_path / "out.json"
    code = fanorank.cli.main(["batch", str(path), "--jobs", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    vertices = [i.copies[0] for i in chosen]
    assert oracle.check_batch(expects, vertices, doc, code) == []

    bad = json.loads(out.read_text())
    flat = next(r for r in bad["reports"] if r["name"] == "bad_flat")
    flat["validation"]["failures"].remove("full_dimensional")
    assert oracle.check_batch(expects, vertices, bad, code)
    # A flat block whose other conditions read "not evaluated" still passes.
    ok = json.loads(out.read_text())
    flat = next(r for r in ok["reports"] if r["name"] == "bad_flat")
    flat["validation"]["failures"] = ["full_dimensional"]
    assert oracle.check_batch(expects, vertices, ok, code) == []
    assert oracle.check_batch(expects, vertices, doc, 0)


def test_classification_checks():
    classes = [c.vertices for c in fanorank.enumerate_2d(1)]
    assert oracle.check_two_d_classes(classes) == []
    assert oracle.check_two_d_classes(classes[:-1])
    assert oracle.check_two_d_classes(classes[:-1] + [classes[0]])

    base = gen.free_sum(("simplex:1", "simplex:2"))
    inp = gen.make_input("s1s2", ("simplex:1", "simplex:2"), random.Random(3), copies=1)
    expect = oracle.expect_product("s1s2", ("simplex:1", "simplex:2"))
    source = fanorank.FanoPolytope(3, base).normal_form()
    form = fanorank.FanoPolytope(3, inp.copies[0]).normal_form()
    assert oracle.check_normal_form(expect, form, source, base, facets=6) == []
    other = fanorank.FanoPolytope(3, gen.free_sum(("simplex:3",)) + ((1, 1, 0),)).vertices
    assert oracle.check_normal_form(expect, other, source, base)
