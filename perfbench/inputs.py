"""Seeded benchmark inputs, built from textbook coordinates without fanorank.

Every polytope is a free sum of named factors (simplices, the hexagon and
the two non-product smooth del Pezzo polygons).  The benchmark hands the
program a seeded unimodular image of each one with its vertices shuffled,
so the program never sees the coordinates the oracle reasons about, and
the oracle in ``oracle.py`` can still derive every invariant from the
factor list alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

HEXAGON = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
# P^2 blown up in one point (the Hirzebruch surface F_1) and in two points.
HIRZEBRUCH1 = ((1, 0), (1, 1), (0, 1), (-1, -1))
DELPEZZO7 = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1))

Vector = tuple[int, ...]


@dataclass(frozen=True)
class Input:
    """One benchmark polytope: its factors and ``copies`` seeded images of it.

    ``factors`` is empty for the invalid blocks, which carry the name of
    the smooth Fano condition they break in ``condition`` instead.
    ``source`` holds the textbook coordinates the copies are images of.
    """

    name: str
    dim: int
    factors: tuple[str, ...]
    copies: tuple[tuple[Vector, ...], ...]
    source: tuple[Vector, ...]
    condition: str | None = None

    def plain(self) -> "Input":
        """The same input with the source coordinates as its only copy."""
        return Input(self.name, self.dim, self.factors, (self.source,), self.source, self.condition)


def factor_vertices(factor: str) -> tuple[Vector, ...]:
    if factor.startswith("simplex:"):
        k = int(factor.split(":", 1)[1])
        basis = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
        return tuple(basis) + ((-1,) * k,)
    return {"hexagon": HEXAGON, "f1": HIRZEBRUCH1, "dp7": DELPEZZO7}[factor]


def free_sum(factors: tuple[str, ...]) -> tuple[Vector, ...]:
    """Vertices of the free sum, each factor padded with zeros around it."""
    parts = [factor_vertices(f) for f in factors]
    dims = [len(p[0]) for p in parts]
    out: list[Vector] = []
    for i, part in enumerate(parts):
        before = (0,) * sum(dims[:i])
        after = (0,) * sum(dims[i + 1 :])
        out.extend(before + v + after for v in part)
    return tuple(out)


def unimodular_map(n: int, rng: random.Random) -> list[list[int]]:
    """A dense seeded unimodular matrix with entries bounded by ``n``.

    It is ``P1 * L * P2`` with a random sign on every row, where ``L`` is
    unit lower triangular with every entry below the diagonal drawn from
    {-1, 1} (the product of all n(n-1)/2 shears of coefficient 1) and
    ``P1``, ``P2`` are permutations.  Every seed gets the same step count,
    the same coefficient bound and a dense result, so the program's cost
    on the image does not swing with the seed the way it does for sparse
    random shear sequences.
    """
    lower = [
        [1 if i == j else rng.choice((-1, 1)) if j < i else 0 for j in range(n)]
        for i in range(n)
    ]
    rows = list(range(n))
    cols = list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[s * lower[r][c] for c in cols] for r, s in zip(rows, signs)]


def transformed(vertices: tuple[Vector, ...], rng: random.Random) -> tuple[Vector, ...]:
    """Seeded unimodular image of the vertices, in shuffled order."""
    matrix = unimodular_map(len(vertices[0]), rng)
    out = [tuple(sum(a * b for a, b in zip(row, v)) for row in matrix) for v in vertices]
    rng.shuffle(out)
    return tuple(out)


def product_name(factors: tuple[str, ...]) -> str:
    return factors[0] if len(factors) == 1 else "product(" + ",".join(factors) + ")"


def make_input(name: str, factors: tuple[str, ...], rng: random.Random, copies: int) -> Input:
    base = free_sum(factors)
    images = tuple(transformed(base, rng) for _ in range(copies))
    return Input(name, len(base[0]), factors, images, base)


# -- the fixed corpus -----------------------------------------------------------

TWO_D_CLASSES = (
    ("p2", ("simplex:2",)),
    ("p1xp1", ("simplex:1", "simplex:1")),
    ("f1", ("f1",)),
    ("dp7", ("dp7",)),
    ("dp6", ("hexagon",)),
)

# One block per smooth Fano condition: (name, dim, vertices, condition).
INVALID_BLOCKS = (
    ("bad_repeated_vertex", 2, ((1, 0), (0, 1), (-1, -1), (0, 1)), "vertices_distinct"),
    ("bad_nonprimitive_vertex", 2, ((2, 0), (0, 1), (-1, -1)), "vertices_primitive"),
    ("bad_flat", 3, ((1, 0, 0), (0, 1, 0), (-1, -1, 0)), "full_dimensional"),
    ("bad_origin_on_boundary", 2, ((1, 0), (0, 1), (-1, 0)), "origin_interior"),
    (
        "bad_cube",
        3,
        tuple((a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)),
        "simplicial",
    ),
    ("bad_interior_point", 2, ((-1, -1), (3, -1), (-1, 3), (1, 0)), "vertices_extremal"),
    ("bad_nonunimodular_facet", 2, ((1, 0), (0, 1), (-1, -2)), "facets_unimodular"),
)


def corpus_members() -> list[tuple[str, tuple[str, ...]]]:
    """The 29 valid members: 2D classes, simplex:1..8, 2- and 3-factor products."""
    members = list(TWO_D_CLASSES)
    members += [(f"simplex:{k}", (f"simplex:{k}",)) for k in range(1, 9)]
    for arity in (2, 3):
        for combo in combinations_with_replacement(("simplex:1", "simplex:2", "hexagon"), arity):
            members.append((product_name(combo), combo))
    return members


def corpus_inputs(rng: random.Random, copies: int, leave_out: tuple[str, ...] = ()) -> list[Input]:
    """The corpus members but ``leave_out``, then one block per invalid condition."""
    members = [(n, f) for n, f in corpus_members() if n not in leave_out]
    out = [make_input(name, factors, rng, copies) for name, factors in members]
    for name, dim, verts, condition in INVALID_BLOCKS:
        images = tuple(transformed(verts, rng) for _ in range(copies))
        out.append(Input(name, dim, (), images, verts, condition))
    return out


def poly_text(inputs: list[Input], copy: int) -> str:
    """The polytope file format: one ``polytope``/``dim``/``v``/``end`` block each."""
    lines: list[str] = []
    for inp in inputs:
        lines.append(f"polytope {inp.name}")
        lines.append(f"dim {inp.dim}")
        lines.extend("v " + " ".join(str(x) for x in v) for v in inp.copies[copy])
        lines.append("end")
    return "\n".join(lines) + "\n"


def max_abs_coordinate(inputs: list[Input]) -> int:
    return max(abs(x) for inp in inputs for copy in inp.copies for v in copy for x in v)
