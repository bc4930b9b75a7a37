import random

from itertools import combinations

import pytest

from fanorank.enum2d import _rings, enumerate_2d, primitive_vectors_in_box
from fanorank.polytope import FanoPolytope, hexagon, validate_smooth_fano

from helpers import brute_force_normal_form


class TestPrimitiveVectors:
    def test_box_one(self):
        vecs = primitive_vectors_in_box(1)
        assert len(vecs) == 8
        assert (0, 0) not in vecs
        assert (1, 1) in vecs

    def test_box_two_excludes_imprimitive(self):
        vecs = primitive_vectors_in_box(2)
        assert len(vecs) == 16
        assert (2, 2) not in vecs and (0, 2) not in vecs
        assert (2, 1) in vecs

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            primitive_vectors_in_box(0)


def _ring_vertex_sets(box_radius):
    return {tuple(sorted(ring)) for ring in _rings(box_radius)}


class TestRings:
    def test_agrees_with_general_validator_on_all_box1_subsets(self):
        vecs = primitive_vectors_in_box(1)
        rings = _ring_vertex_sets(1)
        for size in range(3, 9):
            for subset in combinations(vecs, size):
                slow = validate_smooth_fano(FanoPolytope(2, subset)).passed
                assert (subset in rings) == slow, subset

    def test_agrees_on_random_box2_subsets(self):
        rng = random.Random(42)
        vecs = primitive_vectors_in_box(2)
        rings = _ring_vertex_sets(2)
        for _ in range(300):
            size = rng.randint(3, 8)
            subset = tuple(sorted(rng.sample(vecs, size)))
            slow = validate_smooth_fano(FanoPolytope(2, subset)).passed
            assert (subset in rings) == slow, subset

    @pytest.mark.parametrize("box_radius, count", [(1, 35), (2, 103)])
    def test_each_ring_once_and_valid(self, box_radius, count):
        rings = list(_rings(box_radius))
        assert len(rings) == len(_ring_vertex_sets(box_radius)) == count
        for ring in rings:
            assert validate_smooth_fano(FanoPolytope(2, ring)).passed, ring


class TestEnumeration:
    def test_five_classes_with_expected_vertex_counts(self, two_d_classes):
        assert [len(p.vertices) for p in two_d_classes] == [3, 4, 4, 5, 6]

    def test_all_classes_validate(self, two_d_classes):
        for p in two_d_classes:
            assert validate_smooth_fano(p).passed, p.name

    def test_box_two_finds_no_new_classes(self, two_d_classes):
        bigger = enumerate_2d(2)
        assert [p.normal_form() for p in bigger] == [
            p.normal_form() for p in two_d_classes
        ]

    @pytest.mark.parametrize("box_radius", [1, 2])
    def test_representatives_are_oracle_forms(self, box_radius):
        classes = enumerate_2d(box_radius)
        assert [p.vertices for p in classes] == [brute_force_normal_form(p) for p in classes]

    def test_six_vertex_class_is_the_hexagon(self, two_d_classes):
        assert two_d_classes[-1].normal_form() == hexagon().normal_form()

    def test_names_are_deterministic(self, two_d_classes):
        assert [p.name for p in two_d_classes] == [
            "delpezzo_3v",
            "delpezzo_4v_a",
            "delpezzo_4v_b",
            "delpezzo_5v",
            "delpezzo_6v",
        ]
