import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanorank.lattice import (
    ShapeMismatchError,
    ZeroVectorError,
    determinant,
    dual_basis,
    identity_matrix,
    is_primitive,
    is_unimodular_basis,
    mat_vec,
    reduced_echelon,
    unimodular_inverse,
)

from helpers import det_over_q, inverse_over_q, random_unimodular, rank_over_q


def product(a, b):
    """The matrix product a.b, as a tuple of row tuples."""
    return tuple(zip(*(mat_vec(a, col) for col in zip(*b))))


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
    def test_shape(self, rows):
        m = tuple(tuple(r) for r in rows)
        out, pivots = reduced_echelon(m)
        rank = len(pivots)
        assert rank == rank_over_q(m)
        if pivots:
            common = out[0][pivots[0]]
            assert common != 0
            for r, c in enumerate(pivots):
                assert [row[c] for row in out] == [common if i == r else 0 for i in range(len(out))]
        assert not any(any(row) for row in out[rank:])


class TestUnimodularInverse:
    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            u = random_unimodular(4, rng)
            assert product(u, unimodular_inverse(u)) == identity_matrix(4)

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
        assert product(dual, rows) == scaled
        inverse = inverse_over_q(rows)
        assert [list(row) for row in dual] == [[d * x for x in row] for row in inverse]
        if d == 1:
            assert unimodular_inverse(rows) == dual
        else:
            with pytest.raises(ValueError, match="not unimodular"):
                unimodular_inverse(rows)
