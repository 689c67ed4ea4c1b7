"""Lattice basics: the pairing, named classes, light-cone positions."""

import pytest
from hypothesis import given, strategies as st

from cremona.lattice import (
    LightConePosition,
    PicClass,
    anticanonical_class,
    basis_vector,
    canonical_class,
    degree,
    light_cone_position,
    pairing,
)


def vectors(n: int, lo: int = -50, hi: int = 50):
    return st.tuples(*[st.integers(lo, hi) for _ in range(n + 1)]).map(
        lambda c: PicClass(n, c)
    )


class TestPicClass:
    def test_validates_length(self):
        with pytest.raises(ValueError):
            PicClass(3, (1, 0, 0))

    def test_validates_rank(self):
        with pytest.raises(ValueError):
            PicClass(0, (1,))

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            PicClass(3, (1, 0, 0, 0.5))
        with pytest.raises(TypeError):
            PicClass(3, (1, 0, 0, True))

    def test_is_hashable(self):
        assert len({PicClass(3, (1, 0, 0, 0)), PicClass(3, (1, 0, 0, 0))}) == 1

    def test_arithmetic(self):
        u = PicClass(3, (1, 2, 3, 4))
        v = PicClass(3, (1, 0, 0, -1))
        assert (u + v).coords == (2, 2, 3, 3)
        assert (u - v).coords == (0, 2, 3, 5)
        assert (-u).coords == (-1, -2, -3, -4)
        assert (3 * u).coords == (3, 6, 9, 12)

    def test_mixed_rank_rejected(self):
        with pytest.raises(ValueError):
            PicClass(3, (1, 0, 0, 0)) + PicClass(4, (1, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            pairing(PicClass(3, (1, 0, 0, 0)), PicClass(4, (1, 0, 0, 0, 0)))


class TestPairing:
    def test_signature(self):
        n = 5
        for i in range(n + 1):
            e_i = basis_vector(n, i)
            assert pairing(e_i, e_i) == (1 if i == 0 else -1)
            for j in range(i + 1, n + 1):
                assert pairing(e_i, basis_vector(n, j)) == 0

    @given(vectors(4), vectors(4))
    def test_symmetric(self, u, v):
        assert pairing(u, v) == pairing(v, u)

    @given(vectors(4), vectors(4), vectors(4))
    def test_bilinear(self, u, v, w):
        assert pairing(u + v, w) == pairing(u, w) + pairing(v, w)

    @given(vectors(4), vectors(4), st.integers(-9, 9))
    def test_scaling(self, u, v, k):
        assert pairing(k * u, v) == k * pairing(u, v)


class TestNamedClasses:
    def test_canonical(self):
        k = canonical_class(9)
        assert k.coords == (-3,) + (1,) * 9
        assert pairing(k, k) == 0  # 9 - n at n = 9
        assert pairing(canonical_class(10), canonical_class(10)) == -1
        assert pairing(canonical_class(6), canonical_class(6)) == 3

    def test_canonical_needs_three_points(self):
        with pytest.raises(ValueError):
            canonical_class(2)

    def test_anticanonical(self):
        assert anticanonical_class(4).coords == (3, -1, -1, -1, -1)

    def test_degree(self):
        assert degree(PicClass(3, (7, -1, 0, 2))) == 7

    @given(vectors(9))
    def test_k_pairing_formula(self, v):
        # v.K <= 0 is the same as 3x_0 + sum(x_i) >= 0
        k = canonical_class(9)
        assert (pairing(v, k) <= 0) == (3 * v.coords[0] + sum(v.coords[1:]) >= 0)


class TestLightCone:
    def test_positions(self):
        assert light_cone_position(basis_vector(3, 0)).tag == "interior"
        assert light_cone_position(basis_vector(3, 1)).tag == "outside"
        assert light_cone_position(PicClass(3, (1, 1, 0, 0))).tag == "boundary"
        assert light_cone_position(PicClass(3, (-2, 0, 0, 0))).forward is False

    def test_zero_has_no_position(self):
        with pytest.raises(ValueError):
            light_cone_position(PicClass(3, (0, 0, 0, 0)))
