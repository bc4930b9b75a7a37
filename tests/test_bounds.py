import random
import subprocess
import sys
from pathlib import Path

import pytest

from fanorank import bounds, mori
from fanorank.bounds import (
    analyze,
    cfh_rank_bound,
    check_casagrande,
    check_cfh,
    check_strong,
    check_weak,
)
from fanorank.fan import Fan
from fanorank.formats import construct
from fanorank.lattice import InternalInconsistencyError
from fanorank.mori import minimal_components, primitive_collections, primitive_relation
from fanorank.polytope import FanoPolytope, free_sum, hexagon, simplex

from helpers import NON_PRODUCTS, random_unimodular, transformed_copy

SRC = Path(__file__).resolve().parent.parent / "src"

# a smooth Fano 4-polytope that does not split, whose relation
# {1, 2, 6} -> 3 + 4 has two right-hand terms
Q = FanoPolytope(
    4,
    (
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (-1, 0, 0, 0), (-1, 0, 0, -1), (-1, -1, -1, 1),
    ),
    "Q",
)
# the del Pezzo surface of degree 7
DP7 = FanoPolytope(2, ((-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0)), "dp7")


def fan_of(p):
    return Fan.from_polytope(p)


class TestCasagrande:
    def test_hexagon_attains_equality(self):
        check = check_casagrande(fan_of(hexagon()))
        assert (check.rho, check.bound, check.satisfied) == (4, 4, True)

    def test_simplex(self):
        check = check_casagrande(fan_of(simplex(6)))
        assert (check.rho, check.bound, check.satisfied) == (1, 12, True)

    def test_double_hexagon_attains_equality(self):
        check = check_casagrande(fan_of(free_sum(hexagon(), hexagon())))
        assert (check.rho, check.bound, check.satisfied) == (8, 8, True)


class TestCfh:
    def test_rank_bound_values(self):
        # the published codegree 2 specialization: degree = dim - 1
        expected = {3: 6, 4: 5, 5: 5, 6: 5, 7: 5, 8: 6, 9: 6, 10: 6}
        for n, cap in expected.items():
            assert cfh_rank_bound(n, n - 1) == cap, n

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            cfh_rank_bound(4, 1)

    def test_simplex2_satisfied(self):
        checks = check_cfh(fan_of(simplex(2)))
        assert len(checks) == 1
        assert checks[0].satisfied is True

    def test_hexagon_literal_failure_is_out_of_range(self):
        checks = check_cfh(fan_of(hexagon()))
        assert len(checks) == 3
        for c in checks:
            assert (c.rho, c.bound, c.satisfied) == (4, 3, False)
            assert not c.in_asserted_range

    def test_dimension_three_and_up_in_range(self):
        checks = check_cfh(fan_of(free_sum(hexagon(), simplex(1))))
        assert checks and all(c.in_asserted_range for c in checks)


class TestStrong:
    def test_sharp_family_codegree_two(self):
        for n in range(4, 9):
            f = fan_of(construct(f"product(simplex:{n - 2},hexagon)"))
            entries = [
                c for c in check_strong(f) if c.component.codegree == 2
            ]
            assert entries
            for c in entries:
                assert (c.rho, c.bound, c.satisfied) == (5, 6, True)

    def test_simplex_codegree_zero(self):
        checks = check_strong(fan_of(simplex(5)))
        assert [(c.rho, c.bound, c.satisfied) for c in checks] == [(1, 2, True)]

    def test_hexagon_attains_equality(self):
        checks = check_strong(fan_of(hexagon()))
        assert all((c.rho, c.bound, c.satisfied) == (4, 4, True) for c in checks)


class TestWeak:
    def test_sharp_family_attains_cap(self):
        f = fan_of(construct("product(simplex:2,hexagon)"))
        codeg2 = [c for c in check_weak(f) if c.component.codegree == 2]
        assert len(codeg2) == 1
        assert (codeg2[0].rho, codeg2[0].bound, codeg2[0].satisfied) == (5, 5, True)

    def test_simplex_codegree_zero_cap(self):
        checks = check_weak(fan_of(simplex(4)))
        assert [(c.rho, c.bound, c.satisfied) for c in checks] == [(1, 1, True)]

    def test_three_dimensional_member_all_codegree_two(self):
        f = fan_of(construct("product(simplex:1,hexagon)"))
        checks = check_weak(f)
        assert checks
        for c in checks:
            assert c.component.codegree == 2
            assert (c.rho, c.bound, c.satisfied) == (5, 5, True)

    def test_high_codegree_is_informational(self):
        f = fan_of(construct("product(simplex:2,hexagon)"))
        info = [c for c in check_weak(f) if c.component.codegree >= 3]
        assert info
        for c in info:
            assert c.bound is None and c.satisfied is None

    def test_hexagon_codegree_one_out_of_range(self):
        checks = check_weak(fan_of(hexagon()))
        for c in checks:
            assert (c.bound, c.satisfied, c.in_asserted_range) == (3, False, False)


class TestAnalyze:
    def test_hexagon_report(self):
        rep = analyze(hexagon())
        assert rep.valid
        assert rep.picard_rank == 4
        assert len(rep.relations) == 9
        assert len(rep.components) == 3

    def test_simplex3_report(self):
        rep = analyze(simplex(3))
        assert rep.picard_rank == 1
        assert len(rep.relations) == 1
        assert len(rep.components) == 1

    def test_invalid_input_exits_through_report(self):
        rep = analyze(FanoPolytope(2, ((2, 0), (0, 1), (-1, -1)), "bad"))
        assert not rep.valid
        assert rep.relations == () and rep.components == () and rep.checks == ()
        assert rep.picard_rank == 1  # still vertex_count - dim

    def test_check_order_is_deterministic(self):
        rep = analyze(hexagon())
        assert [c.name for c in rep.checks] == (
            ["casagrande"] + ["cfh"] * 3 + ["strong"] * 3 + ["weak"] * 3
        )

    def test_collections_enumerated_once(self, monkeypatch):
        # once per factor: a free sum's collections are enumerated on each
        # factor's fan and never on the whole fan, which is built once
        calls, built = [], []
        original = mori.primitive_collections
        from_polytope = Fan.from_polytope.__func__

        def counting(fan):
            calls.append(fan)
            return original(fan)

        def building(cls, p):
            built.append(p)
            return from_polytope(cls, p)

        monkeypatch.setattr(bounds, "primitive_collections", counting)
        monkeypatch.setattr(mori, "primitive_collections", counting)
        monkeypatch.setattr(Fan, "from_polytope", classmethod(building))
        p = free_sum(simplex(2), hexagon())
        rep = analyze(p)
        assert rep.valid and len(rep.components) == 4
        assert built == [p]
        assert sorted(len(fan.generators) for fan in calls) == [3, 6]
        assert all(fan.dim == 2 for fan in calls)
        # a polytope that does not split is its own one factor, on the whole fan
        whole = [hexagon()] + [FanoPolytope(d, v, n) for n, (d, v) in NON_PRODUCTS.items()]
        for p in whole:
            calls.clear()
            built.clear()
            assert analyze(p).valid, p.name
            assert built == [p] and calls == [from_polytope(Fan, p)], p.name

    def test_components_derived_from_relations(self, corpus_fans):
        for name, p, fan in corpus_fans:
            assert analyze(p).components == minimal_components(fan), name

    def test_factor_relations_match_the_whole_fan(self, corpus):
        # the oracle: relations and components enumerated on the whole face fan
        rng = random.Random(18)
        members = [p for _, p in corpus] + [
            construct("product(simplex:2,hexagon,simplex:1)"),
            construct("product(hexagon,hexagon,hexagon,hexagon)"),
        ]
        members += [
            transformed_copy(p, random_unimodular(p.dim, rng), rng)
            for p in members[: len(corpus)]
            for _ in range(2)
        ]
        # relations with two right-hand terms inside a factor, in every copy
        for p in (free_sum(Q, Q), free_sum(Q, hexagon())):
            members += [p] + [transformed_copy(p, random_unimodular(p.dim, rng), rng) for _ in range(2)]
        members += [FanoPolytope(d, v, n) for n, (d, v) in NON_PRODUCTS.items()]
        for p in members:
            assert_relations_match_the_whole_fan(p)

    def test_each_distinct_factor_enumerated_once(self, monkeypatch):
        """Factors with the same points in their own coordinates share one
        fan: hexagon^3 and simplex:4^3 enumerate one factor's collections,
        9 and 1, in every seeded image."""
        calls = []
        collections, relation = mori.primitive_collections, mori.primitive_relation

        def counted_collections(fan):
            calls.append(("collections", fan))
            return collections(fan)

        def counted_relation(fan, pc):
            calls.append(("relation", fan))
            return relation(fan, pc)

        monkeypatch.setattr(bounds, "primitive_collections", counted_collections)
        monkeypatch.setattr(bounds, "primitive_relation", counted_relation)
        rng = random.Random(20)
        for spec, count in (
            ("product(hexagon,hexagon,hexagon)", 9),
            ("product(simplex:4,simplex:4,simplex:4)", 1),
        ):
            p = construct(spec)
            for q in [p] + [transformed_copy(p, random_unimodular(p.dim, rng), rng) for _ in range(2)]:
                calls.clear()
                rep = analyze(q)
                assert rep.valid and len(rep.relations) == 3 * count, q.name
                assert len({id(fan) for _, fan in calls}) == 1, q.name
                assert [kind for kind, _ in calls] == ["collections"] + ["relation"] * count, q.name
                assert calls[0][1].dim == p.dim // 3, q.name

    def test_identical_factors_share_one_record(self):
        """The two hexagons of hexagon + dp7 + hexagon share one walk's record,
        and dp7 has its own; the reports are the whole fan's."""
        rng = random.Random(21)
        p = free_sum(free_sum(hexagon(), DP7), hexagon())
        for q in [p] + [transformed_copy(p, random_unimodular(p.dim, rng), rng) for _ in range(2)]:
            factors = q.face_lattice.factors
            hexagons = {id(f.lattice) for f in factors if len(f.points) == 6}
            assert len(factors) == 3 and len(hexagons) == 1, q.name
            assert len({id(f.lattice) for f in factors}) == 2, q.name
            assert_relations_match_the_whole_fan(q)


def assert_relations_match_the_whole_fan(p):
    """``analyze``'s relations and components are those enumerated on the
    whole face fan."""
    rep = analyze(p)
    fan = Fan.from_polytope(p)
    whole = tuple(primitive_relation(fan, pc) for pc in primitive_collections(fan))
    assert rep.valid, p.name
    assert rep.relations == whole, p.name
    assert rep.components == minimal_components(fan), p.name


class TestInvariants:
    def test_inconsistent_check_raises(self):
        with pytest.raises(InternalInconsistencyError):
            bounds.BoundCheck("x", None, 3, 5, True)

    def test_inconsistent_check_raises_under_dash_o(self):
        code = (
            "from fanorank.bounds import BoundCheck; "
            "BoundCheck('x', None, 3, 5, True)"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC)},
        )
        assert proc.returncode != 0
        assert "InternalInconsistencyError" in proc.stderr

    def test_error_class_shared_with_mori(self):
        assert mori.InternalInconsistencyError is InternalInconsistencyError


class TestCorpusTheorems:
    def test_casagrande_satisfied_everywhere(self, corpus_fans):
        for name, p, fan in corpus_fans:
            assert check_casagrande(fan).satisfied, name

    def test_codegree_two_cap_satisfied_everywhere(self, corpus_fans):
        for name, p, fan in corpus_fans:
            for c in check_weak(fan):
                if c.component.codegree == 2:
                    assert c.satisfied, name

    def test_strong_satisfied_at_low_codegree(self, corpus_fans):
        for name, p, fan in corpus_fans:
            for c in check_strong(fan):
                if c.component.codegree <= 2:
                    assert c.satisfied, name

    def test_cfh_satisfied_in_asserted_range(self, corpus_fans):
        for name, p, fan in corpus_fans:
            if fan.dim < 3:
                continue
            for c in check_cfh(fan):
                assert c.satisfied, name
