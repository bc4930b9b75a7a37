"""Exact integer linear algebra on the standard lattice Z^n.

Everything here runs on plain Python integers, which are arbitrary
precision, so no geometric predicate ever sees a rounding error.  Vectors
are tuples of ints, matrices are tuples of row tuples, and all functions
treat their inputs as immutable values, which makes them safe to share
between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


class ZeroVectorError(ValueError):
    """A nonzero vector was required."""


class ShapeMismatchError(ValueError):
    """Vector or matrix dimensions do not line up."""


class NotSaturatedError(ValueError):
    """The given vectors do not extend to a basis of the ambient lattice."""


class InternalInconsistencyError(RuntimeError):
    """An invariant failed (a bug, not bad input); raised, so ``python -O`` keeps it."""


def content(v: Sequence[int]) -> int:
    """Gcd of the entries of ``v`` (0 for the zero vector)."""
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return g


def is_primitive(v: Sequence[int]) -> bool:
    """True iff the gcd of the coordinates of ``v`` is 1.

    Raises ZeroVectorError for the zero vector, whose gcd is undefined
    for this purpose.
    """
    g = content(v)
    if g == 0:
        raise ZeroVectorError("the zero vector is neither primitive nor imprimitive")
    return g == 1


def primitive_part(v: Sequence[int]) -> Vector:
    """``v`` divided by the gcd of its entries."""
    g = content(v)
    if g == 0:
        raise ZeroVectorError("the zero vector has no primitive part")
    if g == 1:
        return tuple(v)
    return tuple(x // g for x in v)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(tuple(col) for col in zip(*m))


def mat_vec(m: Matrix, v: Sequence[int]) -> Vector:
    return tuple(sum(row[i] * v[i] for i in range(len(v))) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ShapeMismatchError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        rk = a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * pk - aik * rk[j]) // prev
            ai[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def reduced_echelon(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns ``(rows, pivots)``.  Row ``r < len(pivots)`` holds the common
    pivot value ``d`` in column ``pivots[r]``, every pivot column is zero
    in the other rows, and the rows past the rank are zero.  Every entry
    stays a minor of the input, so each division by the previous pivot is
    exact (Bareiss) and ``d`` is, up to sign, the determinant of the
    pivot block.
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
        rows[r], rows[sel] = rows[sel], rows[r]
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


def kernel_basis(m: Sequence[Sequence[int]], ncols: int) -> list[Vector]:
    """Integer basis of the rational kernel of ``m``, one vector per free column.

    ``ncols`` gives the width, so a matrix without rows has the standard
    basis as its kernel.
    """
    rows, pivots = reduced_echelon(m)
    d = rows[0][pivots[0]] if pivots else 1
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [0] * ncols
        x[f] = d
        for r, c in enumerate(pivots):
            x[c] = -rows[r][f]
        out.append(tuple(x))
    return out


def matrix_rank(m: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix, computed without division errors."""
    return len(reduced_echelon(m)[1])


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


def unimodular_inverse(m: Sequence[Sequence[int]]) -> Matrix:
    """Exact integer inverse of a matrix with determinant +-1."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ShapeMismatchError("inverse needs a square matrix")
    aug = [list(m[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows, pivots = reduced_echelon(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    d = rows[0][0] if rows else 1
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    # rows hold [d*I | d*m^-1], and d == 1/d
    return tuple(tuple(d * x for x in row[n:]) for row in rows)


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form ``D = U @ M @ V`` of an integer matrix.

    ``U`` and ``V`` are unimodular, ``D`` is diagonal with nonnegative
    entries each dividing the next.  The pivot at every step is the
    nonzero entry of smallest absolute value, ties broken in row-major
    order, so the decomposition is reproducible run to run.
    """
    a = [list(map(int, row)) for row in matrix]
    nr = len(a)
    if nr == 0 or len(a[0]) == 0:
        raise ShapeMismatchError("smith_normal_form needs a nonempty matrix")
    nc = len(a[0])
    if any(len(r) != nc for r in a):
        raise ShapeMismatchError("ragged matrix")

    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j
        ai, aj = a[i], a[j]
        for k in range(nc):
            ai[k] -= q * aj[k]
        ui, uj = u[i], u[j]
        for k in range(nr):
            ui[k] -= q * uj[k]

    def add_col(i: int, j: int, q: int) -> None:
        # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def clear(t: int) -> None:
        while True:
            if a[t][t] < 0:
                negate_row(t)
            for i in range(t + 1, nr):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(i, t, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        if a[t][t] < 0:
                            negate_row(t)
            dirty = False
            for j in range(t + 1, nc):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        add_col(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break

    t = 0
    limit = min(nr, nc)
    while t < limit:
        best = None
        bi = bj = -1
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x:
                    ax = -x if x < 0 else x
                    if best is None or ax < best:
                        best, bi, bj = ax, i, j
        if best is None:
            break
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        clear(t)
        t += 1

    # Enforce the divisibility chain d_i | d_{i+1}.
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di and dj % di:
                add_col(i, i + 1, -1)
                clear(i)
                changed = True

    for i in range(limit):
        if a[i][i] < 0:
            negate_row(i)

    to_mat = lambda rows: tuple(tuple(r) for r in rows)
    return to_mat(u), to_mat(a), to_mat(v)


def row_hermite(matrix: Sequence[Sequence[int]]) -> Matrix:
    """Row-style Hermite normal form (left multiplication by a unimodular map).

    Pivots are positive and entries above a pivot are reduced into
    ``[0, pivot)``; the row space is unchanged.
    """
    rows = [list(map(int, r)) for r in matrix]
    if not rows:
        return ()
    nc = len(rows[0])
    if any(len(r) != nc for r in rows):
        raise ShapeMismatchError("ragged matrix")
    r = 0
    for c in range(nc):
        while True:
            piv = None
            best = None
            for i in range(r, len(rows)):
                x = rows[i][c]
                if x:
                    ax = -x if x < 0 else x
                    if best is None or ax < best:
                        piv, best = i, ax
            if piv is None:
                break
            rows[r], rows[piv] = rows[piv], rows[r]
            done = True
            for i in range(r + 1, len(rows)):
                if rows[i][c]:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][c]:
                        done = False
            if done:
                break
        if piv is None:
            continue
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class QuotientProjection:
    """A surjection Z^n -> Z^(n-r) whose kernel saturates the given span.

    ``matrix`` has the kernel basis in its kernel and maps onto the full
    quotient lattice (its Smith form has all-ones diagonal).
    """

    ambient_rank: int
    kernel_rank: int
    matrix: Matrix

    def apply(self, v: Sequence[int]) -> Vector:
        if len(v) != self.ambient_rank:
            raise ShapeMismatchError(
                f"expected a vector of length {self.ambient_rank}, got {len(v)}"
            )
        return mat_vec(self.matrix, v)


def quotient_projection(
    kernel_basis: Iterable[Sequence[int]], *, ambient_rank: int | None = None
) -> QuotientProjection:
    """Projection of Z^n onto the quotient by the span of ``kernel_basis``.

    The basis must extend to a Z-basis of the ambient lattice (this is
    automatic for the generators of a cone in a smooth fan); otherwise
    NotSaturatedError is raised.  The result is canonical: the projection
    matrix is put in row Hermite form, so equal inputs give equal outputs.
    """
    basis = [tuple(v) for v in kernel_basis]
    if basis:
        n = len(basis[0])
        if any(len(b) != n for b in basis):
            raise ShapeMismatchError("kernel vectors have mixed lengths")
    elif ambient_rank is not None:
        n = ambient_rank
    else:
        raise ShapeMismatchError("empty kernel basis needs an explicit ambient_rank")
    r = len(basis)
    if r > n:
        raise NotSaturatedError(f"{r} vectors cannot be independent in rank {n}")
    if r == 0:
        return QuotientProjection(n, 0, identity_matrix(n))

    cols = tuple(tuple(basis[j][i] for j in range(r)) for i in range(n))
    u, d, _ = smith_normal_form(cols)
    for i in range(r):
        if d[i][i] != 1:
            raise NotSaturatedError(
                "kernel basis does not extend to a lattice basis "
                f"(Smith diagonal entry {d[i][i]})"
            )
    proj = row_hermite(tuple(u[i] for i in range(r, n)))
    for b in basis:
        if any(mat_vec(proj, b)):
            raise InternalInconsistencyError("projection does not kill its kernel")
    return QuotientProjection(n, r, proj)
