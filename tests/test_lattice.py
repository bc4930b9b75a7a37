import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanorank.lattice import (
    NotSaturatedError,
    QuotientProjection,
    ShapeMismatchError,
    ZeroVectorError,
    determinant,
    dual_basis,
    identity_matrix,
    is_primitive,
    is_unimodular_basis,
    kernel_basis,
    mat_mul,
    mat_vec,
    matrix_rank,
    primitive_part,
    quotient_projection,
    reduced_echelon,
    row_hermite,
    unimodular_inverse,
)

from helpers import det_over_q, inverse_over_q, random_unimodular, rank_over_q


class TestIsPrimitive:
    def test_unit_vector(self):
        assert is_primitive((1, 0))

    def test_gcd_two(self):
        assert not is_primitive((2, 4))

    def test_negative_entries(self):
        # gcd(1, 1) = 1 regardless of signs
        assert is_primitive((-1, -1))

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            is_primitive((0, 0, 0))

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_invariant_under_unimodular_maps(self, a, b, c):
        v = (a, b, c)
        if not any(v):
            return
        rng = random.Random(a * 31 + b * 7 + c)
        u = random_unimodular(3, rng)
        assert is_primitive(mat_vec(u, v)) == is_primitive(v)


class TestUnimodularBasis:
    def test_identity(self):
        assert is_unimodular_basis([(1, 0), (0, 1)])

    def test_det_two(self):
        assert not is_unimodular_basis([(1, 0), (1, 2)])

    def test_rotation(self):
        # det = 0*0 - 1*(-1) = 1 by cofactor expansion
        assert is_unimodular_basis([(0, 1), (-1, 0)])

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatchError):
            is_unimodular_basis([(1, 0, 0), (0, 1, 0)])


class TestDeterminant:
    def test_empty_is_one(self):
        assert determinant([]) == 1

    def test_known_3x3(self):
        assert determinant([(2, 0, 1), (1, 1, 0), (0, 3, 1)]) == 5

    def test_singular(self):
        assert determinant([(1, 2), (2, 4)]) == 0

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_matches_cofactor_expansion(self, rows):
        m = [tuple(r) for r in rows]
        expand = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        assert determinant(m) == expand


matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-20, 20), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestReducedEchelon:
    @given(matrices)
    @settings(max_examples=150)
    def test_shape_and_kernel(self, rows):
        m = tuple(tuple(r) for r in rows)
        ncols = len(m[0])
        out, pivots = reduced_echelon(m)
        rank = len(pivots)
        assert rank == rank_over_q(m)
        assert matrix_rank(m) == rank
        if pivots:
            common = out[0][pivots[0]]
            assert common != 0
            for r, c in enumerate(pivots):
                assert [row[c] for row in out] == [common if i == r else 0 for i in range(len(out))]
        assert not any(any(row) for row in out[rank:])
        kernel = kernel_basis(m, ncols)
        assert len(kernel) == ncols - rank
        assert all(not any(mat_vec(m, x)) for x in kernel)
        assert matrix_rank(kernel) == len(kernel)

    def test_no_rows_has_standard_kernel(self):
        assert kernel_basis([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


# (n, basis): up to n + 1 vectors in Z^n, with entries small enough that
# saturated and rejected bases both come up often
bases = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            max_size=n + 1,
        ),
    )
)


class TestRowHermite:
    def test_pivot_normalization(self):
        assert row_hermite(((-1, 1),)) == ((1, -1),)

    def test_reorders_to_echelon(self):
        assert row_hermite(((0, 1, 0), (1, 0, 0))) == ((1, 0, 0), (0, 1, 0))

    def test_reduces_above(self):
        h = row_hermite(((1, 5), (0, 2)))
        assert h == ((1, 1), (0, 2))


class TestUnimodularInverse:
    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            u = random_unimodular(4, rng)
            assert mat_mul(u, unimodular_inverse(u)) == identity_matrix(4)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            unimodular_inverse(((2, 0), (0, 1)))

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            unimodular_inverse(((1, 1), (1, 1)))


square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


class TestDualBasis:
    @given(square_matrices)
    def test_against_rational_elimination(self, rows):
        """d = |det| and D = d B^-1 over the rationals; ``unimodular_inverse``
        raises iff d != 1, and both raise on a singular matrix."""
        det = det_over_q(rows)
        if det == 0:
            for fn in (dual_basis, unimodular_inverse):
                with pytest.raises(ValueError, match="singular"):
                    fn(rows)
            return
        d, dual = dual_basis(rows)
        n = len(rows)
        assert d == abs(det)
        scaled = tuple(tuple(d * x for x in row) for row in identity_matrix(n))
        assert mat_mul(dual, rows) == scaled
        inverse = inverse_over_q(rows)
        assert [list(row) for row in dual] == [[d * x for x in row] for row in inverse]
        if d == 1:
            assert unimodular_inverse(rows) == dual
        else:
            with pytest.raises(ValueError, match="not unimodular"):
                unimodular_inverse(rows)


class TestQuotientProjection:
    def test_coordinate_kernel(self):
        proj = quotient_projection([(0, 0, 1)])
        assert proj.matrix == ((1, 0, 0), (0, 1, 0))
        assert proj.apply((5, -2, 9)) == (5, -2)

    def test_diagonal_kernel(self):
        proj = quotient_projection([(1, 1)])
        assert proj.apply((1, 1)) == (0,)
        assert proj.matrix == ((1, -1),)
        # (1, 1) and (0, 1) are a lattice basis; the image of (0, 1) spans Z
        assert abs(det_over_q([proj.apply((0, 1))])) == 1

    def test_not_saturated(self):
        with pytest.raises(NotSaturatedError):
            quotient_projection([(2, 0)])

    def test_dependent_basis_rejected(self):
        with pytest.raises(NotSaturatedError):
            quotient_projection([(1, 0), (2, 0)])

    def test_empty_kernel_is_identity(self):
        proj = quotient_projection([], ambient_rank=3)
        assert proj.matrix == identity_matrix(3)
        assert proj.kernel_rank == 0

    def test_mismatched_ambient_rank_rejected(self):
        with pytest.raises(ShapeMismatchError, match="ambient_rank"):
            quotient_projection([(1, 0, 0)], ambient_rank=2)
        assert quotient_projection([(1, 0, 0)], ambient_rank=3) == quotient_projection(
            [(1, 0, 0)]
        )

    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 3))
    @settings(max_examples=80)
    def test_invariants_on_random_saturated_bases(self, seed, n, r):
        if r >= n:
            r = n - 1
        rng = random.Random(seed)
        u = random_unimodular(n, rng)
        basis = [tuple(row[i] for row in u) for i in range(r)]  # first r columns
        proj = quotient_projection(basis)
        assert proj.ambient_rank == n and proj.kernel_rank == r
        assert len(proj.matrix) == n - r
        for b in basis:
            assert proj.apply(b) == (0,) * (n - r)
        # onto: the images of the completing columns of u form a lattice basis
        completion = [tuple(row[i] for row in u) for i in range(r, n)]
        assert abs(det_over_q([proj.apply(c) for c in completion])) == 1

    def test_deterministic(self):
        a = quotient_projection([(3, 1, 2)])
        b = quotient_projection([(3, 1, 2)])
        assert a == b == QuotientProjection(3, 1, a.matrix)

    def test_inexact_coordinates_rejected(self):
        with pytest.raises(TypeError, match="must be int"):
            quotient_projection([(1.5, 0)])

    @given(bases)
    @settings(max_examples=300)
    def test_rejected_iff_maximal_minors_not_coprime(self, case):
        n, basis = case
        r = len(basis)
        minors = 0
        for coords in combinations(range(n), r):
            minors = gcd(minors, det_over_q([[b[i] for b in basis] for i in coords]))
        try:
            quotient_projection(basis, ambient_rank=n)
        except NotSaturatedError:
            assert minors != 1
        else:
            assert minors == 1

    @given(bases)
    @settings(max_examples=300)
    def test_projection_in_reduced_row_hermite_form(self, case):
        n, basis = case
        try:
            proj = quotient_projection(basis, ambient_rank=n)
        except NotSaturatedError:
            return
        last = -1
        for i, row in enumerate(proj.matrix):
            assert any(row)
            c = next(k for k, x in enumerate(row) if x)
            assert c > last and row[c] > 0
            assert all(0 <= above[c] < row[c] for above in proj.matrix[:i])
            last = c
