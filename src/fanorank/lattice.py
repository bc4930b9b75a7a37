"""Exact integer linear algebra on the standard lattice Z^n.

Everything here runs on plain Python integers, which are arbitrary
precision, so no geometric predicate ever sees a rounding error.  Vectors
are tuples of ints, matrices are tuples of row tuples, and all functions
treat their inputs as immutable values, which makes them safe to share
between threads.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Iterable, Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


class ZeroVectorError(ValueError):
    """A nonzero vector was required."""


class ShapeMismatchError(ValueError):
    """Vector or matrix dimensions do not line up."""


class InternalInconsistencyError(RuntimeError):
    """An invariant failed (a bug, not bad input); raised, so ``python -O`` keeps it."""


def content(v: Sequence[int]) -> int:
    """Gcd of the entries of ``v`` (0 for the zero vector)."""
    return math.gcd(*v)


def is_primitive(v: Sequence[int]) -> bool:
    """True iff the gcd of the coordinates of ``v`` is 1.

    Raises ZeroVectorError for the zero vector, whose gcd is undefined
    for this purpose.
    """
    g = content(v)
    if g == 0:
        raise ZeroVectorError("the zero vector is neither primitive nor imprimitive")
    return g == 1


def int_vector(v: Iterable[int], what: str) -> Vector:
    """``v`` as a tuple, or TypeError for an entry whose type is not ``int``.

    ``bool``, ``float`` and ``Fraction`` are rejected, never truncated.
    """
    v = tuple(v)
    for x in v:
        if type(x) is not int:
            raise TypeError(
                f"{what} coordinates must be int, got {x!r} of type "
                f"{type(x).__name__} in {v}"
            )
    return v


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m: Matrix, v: Sequence[int]) -> Vector:
    return tuple(sum(map(mul, row, v)) for row in m)


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant: the common pivot of ``reduced_echelon``, 0 short of full rank."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ShapeMismatchError("determinant needs a square matrix")
    rows, pivots = reduced_echelon(m)
    return 0 if len(pivots) < n else rows[-1][-1] if n else 1


def reduced_echelon(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns ``(rows, pivots)``.  Row ``r < len(pivots)`` holds the common
    pivot value ``d`` in column ``pivots[r]``, every pivot column is zero
    in the other rows, and the rows past the rank are zero.  Every entry
    stays a minor of the input, so each division by the previous pivot is
    exact (Bareiss).  A row swap negates one of its rows, so ``d`` is
    exactly ``det m`` for a square matrix of full rank and, up to sign,
    the determinant of the pivot block otherwise.
    """
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if rows[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            rows[r], rows[sel] = rows[sel], [-x for x in rows[r]]
        prow = rows[r]
        p = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            q = rows[i][c]
            if q:
                rows[i] = [(p * x - q * y) // prev for x, y in zip(rows[i], prow)]
            elif p != prev:
                rows[i] = [p * x // prev for x in rows[i]]
        pivots.append(c)
        prev = p
    return rows, pivots


def is_unimodular_basis(vectors: Iterable[Sequence[int]]) -> bool:
    """True iff the vectors are a Z-basis of the ambient lattice (det = +-1)."""
    vs = [tuple(v) for v in vectors]
    if not vs:
        raise ShapeMismatchError("need at least one vector")
    n = len(vs[0])
    if len(vs) != n or any(len(v) != n for v in vs):
        raise ShapeMismatchError(
            f"need exactly {n} vectors of length {n}, got {len(vs)}"
        )
    return abs(determinant(vs)) == 1


def dual_basis(m: Sequence[Sequence[int]]) -> tuple[int, Matrix]:
    """``(d, D)`` with ``d = |det m|`` and ``D = d m^-1``, so ``D.m = d I``.

    One fraction-free Gauss-Jordan elimination takes ``[m | I]`` to
    ``[e I | e m^-1]`` with ``e = det m``; the sign is then made
    positive.  Raises ValueError for a singular matrix.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ShapeMismatchError("inverse needs a square matrix")
    aug = [list(m[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows, pivots = reduced_echelon(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    e = rows[0][0] if rows else 1
    s = 1 if e > 0 else -1
    return s * e, tuple(tuple(s * x for x in row[n:]) for row in rows)


def unimodular_inverse(m: Sequence[Sequence[int]]) -> Matrix:
    """Exact integer inverse of a matrix with determinant +-1."""
    d, inverse = dual_basis(m)
    if d != 1:
        raise ValueError("matrix is not unimodular")
    return inverse

