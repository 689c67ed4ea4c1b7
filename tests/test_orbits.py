"""The S_n-orbit helpers of curves: ``_placements`` lists an orbit and
``_orbit_size`` counts it, for any multiset of nonzero integers, and the
class cap that counts orbits answers at once however large n is.  The
bounded group orbit, a walk over S_n-orbit representatives: its bounds
and small cases, and the walk against the reference search over every
generator and against the (-1)-class enumeration."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from cremona.cli import CURVES_MAX_CLASSES
from cremona.curves import (
    OrbitResult,
    _count_minus_one,
    _orbit_size,
    _placements,
    enumerate_minus_one,
    orbit,
)
from cremona.lattice import PicClass, basis_vector, canonical_class, pairing
from cremona.weyl import reduce_class
from oracles import brute_force_minus_one, reference_orbit


@st.composite
def multisets(draw):
    """(multiset, n): up to five nonzero values of both signs, repeats
    likely, and up to three zeros of padding."""
    values = draw(st.lists(st.integers(-3, 3).filter(bool), max_size=5))
    return tuple(values), len(values) + draw(st.integers(0, 3))


class TestPlacements:
    @given(multisets())
    def test_the_orbit_in_decreasing_order(self, case):
        multiset, n = case
        padded = multiset + (0,) * (n - len(multiset))
        vectors = list(_placements(multiset, n))
        assert all(a > b for a, b in zip(vectors, vectors[1:]))
        assert all(sorted(v) == sorted(padded) for v in vectors)
        assert len(vectors) == _orbit_size(multiset, n)
        if n <= 6:
            assert set(vectors) == set(itertools.permutations(padded))


class TestOrbitSize:
    def test_cost_does_not_grow_with_n(self):
        assert _orbit_size((-1,), 10**12) == 10**12
        assert _orbit_size((2, 1, 1), 10**12) == 10**12 * (10**12 - 1) * (10**12 - 2) // 2


def test_enumeration_at_ten_points_degree_eight_is_the_sorted_oracle():
    classes = [c.coords for c in enumerate_minus_one(10, 8)]
    assert len(classes) == 117_754
    assert classes == sorted(brute_force_minus_one(10, 8))


class TestClassCapAtLargeN:
    # n = 149,999 has 149,999 e_i and about 1.1e10 lines: past the cap at
    # degree 1, decided from two orbit sizes; the CLI's refusal is a row
    # of tests/test_bounds.py
    def test_count_stops_at_once(self):
        assert _count_minus_one(149_999, 1, CURVES_MAX_CLASSES) > CURVES_MAX_CLASSES


class TestOrbit:
    def test_needs_a_bound(self):
        with pytest.raises(TypeError):
            orbit(basis_vector(4, 1))

    def test_exceptional_orbit_is_the_lines(self):
        # W(E_6) acts transitively on the 27 lines of the cubic surface,
        # all of degree <= 2
        result = orbit(basis_vector(6, 6), max_degree=2, max_count=100)
        assert len(result.classes) == 27
        assert not result.truncated
        k = canonical_class(6)
        for c in result.classes:
            assert pairing(c, c) == -1 and pairing(c, k) == -1

    def test_max_count_truncates_deterministically(self):
        a = orbit(basis_vector(6, 6), max_count=10)
        b = orbit(basis_vector(6, 6), max_count=10)
        assert a == b
        assert a.truncated and len(a.classes) == 10

    @pytest.mark.parametrize("max_count", [0, -5])
    def test_max_count_below_one_rejected(self, max_count):
        with pytest.raises(ValueError, match=f"max_count must be >= 1, got {max_count}"):
            orbit(basis_vector(9, 9), max_count=max_count)

    @pytest.mark.parametrize("max_degree", [-1, -7])
    def test_negative_max_degree_rejected(self, max_degree):
        with pytest.raises(ValueError, match=f"max_degree must be >= 0, got {max_degree}"):
            orbit(basis_vector(6, 6), max_degree=max_degree, max_count=1)
        with pytest.raises(ValueError, match="max_degree must be >= 0"):
            orbit(basis_vector(6, 6), max_degree=max_degree, max_count=10)

    @pytest.mark.parametrize("max_degree", [2.5, 2.0, True])
    def test_non_integer_max_degree_rejected(self, max_degree):
        with pytest.raises(ValueError, match=f"max_degree must be an integer, got {max_degree!r}"):
            orbit(basis_vector(6, 6), max_degree=max_degree, max_count=100)

    @pytest.mark.parametrize("max_count", [True, 10.0])
    def test_non_integer_max_count_rejected(self, max_count):
        with pytest.raises(ValueError, match=f"max_count must be an integer, got {max_count!r}"):
            orbit(basis_vector(6, 6), max_degree=2, max_count=max_count)

    def test_max_count_one_keeps_the_start(self):
        v = basis_vector(9, 9)
        assert orbit(v, max_count=1) == OrbitResult((v,), True)

    def test_degree_prune_excludes_high_degree_start(self):
        v = PicClass(4, (5, -2, -2, -2, -2))
        assert orbit(v, max_degree=4, max_count=1).classes == ()

    def test_fixed_point_orbit(self):
        k = canonical_class(5)
        result = orbit(k, max_degree=0, max_count=100)
        assert result.classes == (k,)
        assert not result.truncated


# a max_count that no closure walked here reaches
WHOLE = 10**6


def coords_of(result):
    return [c.coords for c in result.classes]


class TestOrbitAgainstReference:
    # (coords, max_degree, max_count): the 27 lines, the 56 and 240
    # (-1)-classes of n = 7 and 8 (finite groups, so no degree bound), a
    # fixed point, the zero class, and K-positive classes under a count
    FIXED = [
        ((0, 0, 0, 0, 0, 0, 1), 2, None),
        ((0,) * 7 + (1,), None, 100),
        ((0,) * 8 + (1,), None, 1000),
        ((1,) + (0,) * 7, 5, None),
        ((-3, 1, 1, 1, 1, 1), 0, None),
        ((3,) + (-1,) * 9, 3, None),
        ((0, 0, 0, 0, 0), None, 5),
        ((-1, 0, 0, 0), None, 50),
        ((-1,) + (0,) * 10, 0, 300),
        ((2, 1, -1, 0, 0, 0), 3, 200),
    ]

    @pytest.mark.parametrize("coords, max_degree, max_count", FIXED)
    def test_fixed_cases(self, coords, max_degree, max_count):
        budget = WHOLE if max_count is None else max_count
        got = orbit(PicClass(len(coords) - 1, coords), max_degree, max_count=budget)
        want, cut = reference_orbit(coords, max_degree, max_count)
        assert got.truncated == cut
        assert len(got.classes) == len(want)
        if not cut:
            assert coords_of(got) == want

    def test_random_classes(self):
        # the whole closure when it has at most 500 classes, else the flag
        # and the count; a whole closure is whole at its own size too, and
        # cut at a random smaller count it must keep a sorted part of it
        rng = random.Random(14)
        whole = cut_short = k_positive = 0
        for n in range(3, 11):
            for _ in range(6):
                coords = tuple(rng.randint(-4, 4) for _ in range(n + 1))
                max_degree = max(coords[0], 0) + rng.randint(0, 2)
                k_positive += 3 * coords[0] + sum(coords[1:]) < 0
                v = PicClass(n, coords)
                got = orbit(v, max_degree, max_count=500)
                want, cut = reference_orbit(coords, max_degree, 500)
                assert (got.truncated, len(got.classes)) == (cut, len(want)), coords
                if cut:
                    cut_short += 1
                    continue
                whole += 1
                assert coords_of(got) == want, coords
                assert orbit(v, max_degree, max_count=len(want)) == got
                if len(want) > 1:
                    count = rng.randrange(1, len(want))
                    part = orbit(v, max_degree, max_count=count)
                    assert part.truncated and len(part.classes) == count
                    assert coords_of(part) == sorted(set(coords_of(part)))
                    assert set(coords_of(part)) <= set(want)
        assert whole >= 10 and cut_short >= 10 and k_positive >= 10


class TestExceptionalOrbitAgainstEnumeration:
    """The orbit of e_n within degree d against the numerical (-1)-classes
    of degree <= d: the same below ten points, and from ten points on a
    part of them."""

    @pytest.mark.parametrize("n", range(3, 10))
    def test_equal_below_ten_points(self, n):
        for d in range(9):
            want = sorted(c.coords for c in enumerate_minus_one(n, d))
            assert coords_of(orbit(basis_vector(n, n), d, max_count=WHOLE)) == want

    @pytest.mark.parametrize("n, outside", [(10, 45), (11, 495)])
    def test_a_part_from_ten_points(self, n, outside):
        e_n = basis_vector(n, n)
        assert coords_of(orbit(e_n, 4, max_count=WHOLE)) == sorted(
            c.coords for c in enumerate_minus_one(n, 4))
        reached = set(coords_of(orbit(e_n, 5, max_count=WHOLE)))
        numerical = {c.coords for c in enumerate_minus_one(n, 5)}
        missing = numerical - reached
        assert reached < numerical and len(missing) == outside
        assert (5, -3, -3) + (-1,) * 8 + (0,) * (n - 10) in missing
        # each reduces to the one sorted class (3, (-1)^9, 0, ..., 0, 1)
        tail = (-1,) * 9 + (0,) * (n - 10) + (1,)
        assert {reduce_class(PicClass(n, c)).reduced.coords for c in missing} == {(3, *tail)}
