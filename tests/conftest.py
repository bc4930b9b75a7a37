import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest

from fanorank import Fan, FanoPolytope, construct, enumerate_2d, simplex

from helpers import NON_PRODUCTS

FACTORS = ("simplex:1", "simplex:2", "hexagon")


def _products(arity):
    from itertools import combinations_with_replacement

    for combo in combinations_with_replacement(FACTORS, arity):
        yield construct("product(" + ",".join(combo) + ")")


@pytest.fixture(scope="session")
def two_d_classes():
    return enumerate_2d(1)


@pytest.fixture(scope="session")
def corpus(two_d_classes):
    """The full test corpus: 2D classes, simplices to dim 8, products of <= 3 factors."""
    members = [(p.name, p) for p in two_d_classes]
    members += [(f"simplex:{n}", simplex(n)) for n in range(1, 9)]
    for arity in (2, 3):
        members += [(p.name, p) for p in _products(arity)]
    return members


@pytest.fixture(scope="session")
def corpus_fans(corpus):
    """Corpus members with their face fans; built once, shared everywhere."""
    return [(name, p, Fan.from_polytope(p)) for name, p in corpus]


@pytest.fixture(scope="session")
def sweep_fans(corpus_fans):
    """Corpus fans plus the smooth Fano 3- and 4-folds that are not products."""
    extra = [FanoPolytope(dim, verts, name) for name, (dim, verts) in NON_PRODUCTS.items()]
    return corpus_fans + [(p.name, p, Fan.from_polytope(p)) for p in extra]
