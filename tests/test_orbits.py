"""The S_n-orbit helpers of curves: ``_placements`` lists an orbit and
``_orbit_size`` counts it, for any multiset of nonzero integers, and the
class cap that counts orbits answers at once however large n is."""

import itertools
import time

from hypothesis import given, strategies as st

from cremona.cli import CURVES_MAX_CLASSES, main
from cremona.curves import _count_minus_one, _orbit_size, _placements, enumerate_minus_one
from oracles import brute_force_minus_one


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
    # degree 1, decided from two orbit sizes
    def test_count_stops_at_once(self):
        start = time.perf_counter()
        assert _count_minus_one(149_999, 1, CURVES_MAX_CLASSES) > CURVES_MAX_CLASSES
        assert time.perf_counter() - start < 0.1

    def test_curves_refuses_at_once(self, capsys):
        start = time.perf_counter()
        code = main(["curves", "--n", "149999", "--max-degree", "1"])
        assert time.perf_counter() - start < 0.1
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "150000 classes" in captured.err
