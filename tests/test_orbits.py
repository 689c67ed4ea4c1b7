"""The S_n-orbit helpers of curves: ``_placements`` lists an orbit and
``_orbit_size`` counts it, for any multiset of nonzero integers, and the
class cap that counts orbits answers at once however large n is.  The
bounded group orbit, a walk over S_n-orbit representatives, against the
reference search over every generator and against the (-1)-class
enumeration."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from cremona.cli import CURVES_MAX_CLASSES
from cremona.curves import _count_minus_one, _orbit_size, _placements, enumerate_minus_one
from cremona.lattice import PicClass, basis_vector
from cremona.weyl import orbit, reduce_class
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
