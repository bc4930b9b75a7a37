"""The incidence-mask core against the frozenset oracle of ``helpers``.

Every fan here is checked for the same tuples in the same order from
``primitive_collections``, ``count_pc_extensions`` and
``verify_reid_cones``, and the same answers from ``is_cone``, as the
brute-force scans over faces built from ``fan.max_cones`` alone.  The
fans are the test corpus, seeded unimodular images of two products and
the smooth Fano 3- and 4-folds that are not products; each is also
checked with its first maximal cone removed, which breaks completeness
and gives nonempty Reid violation lists.  ``primitive_collections`` is
also checked against the face walk of ``helpers`` on these fans and on
products of dimension 8 to 13 beyond the subset scan's reach (hexagon^4
also in three seeded images with shuffled vertices), and against
the subset scan on fans with a random subset of their cones removed,
or all of them.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanorank import construct
from fanorank.fan import Fan
from fanorank.mori import (
    count_pc_extensions,
    primitive_collections,
    primitive_relation,
    verify_reid_cones,
)
from fanorank.polytope import FanoPolytope

from helpers import (
    NON_PRODUCTS,
    brute_force_faces,
    brute_force_pc_extensions,
    brute_force_primitive_collections,
    brute_force_reid_violations,
    face_walk_primitive_collections,
    random_unimodular,
    transformed_copy,
)

IMAGE_SPECS = ("product(hexagon,hexagon)", "product(simplex:2,simplex:1,hexagon)")
# Beyond the subset scan's reach; hexagon^2 and hexagon^3 are corpus members.
LARGE_SPECS = (
    "product(hexagon,hexagon,hexagon,hexagon)",
    "simplex:13",
    "product(simplex:6,simplex:6)",
    "product(simplex:4,simplex:4,simplex:4)",
)


@pytest.fixture(scope="module")
def fans(corpus_fans):
    out = [(name, fan) for name, _, fan in corpus_fans]
    for spec in IMAGE_SPECS:
        rng = random.Random(spec)
        p = construct(spec)
        for k in range(5):
            q = transformed_copy(p, random_unimodular(p.dim, rng), rng)
            out.append((f"{spec}~{k}", Fan.from_polytope(q)))
    for name, (dim, verts) in sorted(NON_PRODUCTS.items()):
        out.append((name, Fan.from_polytope(FanoPolytope(dim, verts, name))))
    return out


def doctored(fan):
    return Fan(fan.dim, fan.generators, fan.max_cones[1:])


def test_primitive_collections(fans):
    for name, fan in fans:
        for f in (fan, doctored(fan)):
            want = brute_force_primitive_collections(f)
            assert primitive_collections(f) == want, name


def test_primitive_collections_match_face_walk(fans):
    for name, fan in fans:
        for f in (fan, doctored(fan)):
            assert primitive_collections(f) == face_walk_primitive_collections(f), name
    for spec in LARGE_SPECS:
        fan = Fan.from_polytope(construct(spec))
        assert primitive_collections(fan) == face_walk_primitive_collections(fan), spec
    # the search relabels rays and cones, so vertex order must not change its answer
    hexagon4 = construct(LARGE_SPECS[0])
    rng = random.Random(5)
    for k in range(3):
        image = transformed_copy(hexagon4, random_unimodular(hexagon4.dim, rng), rng)
        fan = Fan.from_polytope(image)
        assert primitive_collections(fan) == face_walk_primitive_collections(fan), k


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_primitive_collections_with_cones_dropped(fans, data):
    """Dropping cones leaves some rays in no cone; those are never reported."""
    small = [(name, fan) for name, fan in fans if len(fan.generators) <= 12]
    name, fan = data.draw(st.sampled_from(small))
    keep = data.draw(st.lists(st.booleans(), min_size=len(fan.max_cones), max_size=len(fan.max_cones)))
    f = Fan(fan.dim, fan.generators, tuple(c for c, k in zip(fan.max_cones, keep) if k))
    assert primitive_collections(f) == brute_force_primitive_collections(f), (name, keep)


def test_every_cone_dropped(fans):
    for name, fan in fans:
        f = Fan(fan.dim, fan.generators, ())
        assert f.incidence == (0,) * len(fan.generators), name
        assert primitive_collections(f) == brute_force_primitive_collections(f) == (), name


def test_is_cone(fans):
    for name, fan in fans:
        for f in (fan, doctored(fan)):
            faces = brute_force_faces(f)
            m = len(f.generators)
            for size in range(f.dim + 2):
                for subset in combinations(range(m), size):
                    want = frozenset(subset) in faces
                    assert f.is_cone(subset) == want, (name, subset)


def test_face_set_and_all_faces(fans):
    for name, fan in fans:
        faces = brute_force_faces(fan)
        assert fan.face_set == faces, name
        ordered = sorted((tuple(sorted(f)) for f in faces), key=lambda f: (len(f), f))
        assert fan.all_faces == tuple(ordered), name


def test_count_pc_extensions(fans):
    for name, fan in fans:
        for f in (fan, doctored(fan)):
            for cone in brute_force_faces(f):
                if len(cone) <= 2:
                    want = brute_force_pc_extensions(f, cone)
                    assert count_pc_extensions(f, cone) == want, (name, sorted(cone))


def test_verify_reid_cones(fans):
    nonempty = 0
    for name, fan in fans:
        for pc in primitive_collections(fan):
            rel = primitive_relation(fan, pc)
            for f in (fan, doctored(fan)):
                got = verify_reid_cones(f, rel, require_degree_one=False)
                assert got == brute_force_reid_violations(f, rel), (name, pc)
                nonempty += bool(got)
    assert nonempty > 0
