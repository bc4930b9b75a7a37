import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanorank.lattice import (
    NotSaturatedError,
    QuotientProjection,
    ShapeMismatchError,
    ZeroVectorError,
    determinant,
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
    smith_normal_form,
    unimodular_inverse,
)

from helpers import random_unimodular


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


class TestSmithNormalForm:
    def test_identity(self):
        u, d, v = smith_normal_form(identity_matrix(2))
        assert d == identity_matrix(2)

    def test_already_diagonal(self):
        _, d, _ = smith_normal_form(((2, 0), (0, 4)))
        assert d == ((2, 0), (0, 4))

    def test_hand_reduction(self):
        # [[1,0],[1,2]] row-reduces to diag(1,2)
        u, d, v = smith_normal_form(((1, 0), (1, 2)))
        assert d == ((1, 0), (0, 2))
        assert mat_mul(mat_mul(u, ((1, 0), (1, 2))), v) == d

    @given(matrices)
    @settings(max_examples=150)
    def test_decomposition_properties(self, rows):
        m = tuple(tuple(r) for r in rows)
        u, d, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        for i in range(len(d)):
            for j in range(len(d[0])):
                if i != j:
                    assert d[i][j] == 0
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0

    def test_rank_agrees(self):
        m = ((1, 2, 3), (2, 4, 6), (1, 0, 1))
        _, d, _ = smith_normal_form(m)
        snf_rank = sum(1 for i in range(min(3, 3)) if d[i][i])
        assert snf_rank == matrix_rank(m) == 2


class TestReducedEchelon:
    @given(matrices)
    @settings(max_examples=150)
    def test_shape_and_kernel(self, rows):
        m = tuple(tuple(r) for r in rows)
        ncols = len(m[0])
        out, pivots = reduced_echelon(m)
        rank = len(pivots)
        _, d, _ = smith_normal_form(m)
        assert rank == sum(1 for i in range(min(len(m), ncols)) if d[i][i])
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


class TestQuotientProjection:
    def test_coordinate_kernel(self):
        proj = quotient_projection([(0, 0, 1)])
        assert proj.matrix == ((1, 0, 0), (0, 1, 0))
        assert proj.apply((5, -2, 9)) == (5, -2)

    def test_diagonal_kernel(self):
        proj = quotient_projection([(1, 1)])
        assert proj.apply((1, 1)) == (0,)
        assert proj.matrix == ((1, -1),)
        _, d, _ = smith_normal_form(proj.matrix)
        assert d[0][0] == 1

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
        _, d, _ = smith_normal_form(proj.matrix)
        assert all(d[i][i] == 1 for i in range(n - r))

    def test_deterministic(self):
        a = quotient_projection([(3, 1, 2)])
        b = quotient_projection([(3, 1, 2)])
        assert a == b == QuotientProjection(3, 1, a.matrix)
