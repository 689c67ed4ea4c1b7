"""(-1)-classes: predicate, enumeration (against the brute-force oracle),
and the cubic/conic decomposition."""

import itertools

import pytest

from cremona import curves
from cremona.curves import (
    _count_minus_one,
    _multiplicity_multisets,
    _orbit_size,
    _placements,
    decompose_inequality,
    enumerate_minus_one,
    is_minus_one_class,
)
from cremona.lattice import PicClass, anticanonical_class, basis_vector, canonical_class, pairing
from cremona.nef import curve_check
from oracles import CURVE_COUNTS, brute_force_minus_one


class TestPredicate:
    def test_exceptional_classes(self):
        for i in range(1, 5):
            assert is_minus_one_class(basis_vector(4, i))

    def test_line_class_is_not(self):
        assert not is_minus_one_class(basis_vector(4, 0))

    def test_line_through_two_points(self):
        assert is_minus_one_class(PicClass(4, (1, -1, -1, 0, 0)))

    def test_conic_through_five(self):
        assert is_minus_one_class(PicClass(5, (2, -1, -1, -1, -1, -1)))

    def test_wrong_square_rejected(self):
        assert not is_minus_one_class(PicClass(4, (1, -1, 0, 0, 0)))

    def test_negative_degree_rejected(self):
        assert not is_minus_one_class(PicClass(4, (-1, 1, 1, 0, 0)))

    def test_canonical_class_at_ten_points_rejected_for_its_degree(self):
        # K = (-3, 1^10) has K^2 = K.K = -1, so only the sign of the
        # degree tells it from a (-1)-class
        k = canonical_class(10)
        assert pairing(k, k) == -1
        assert not is_minus_one_class(k)

    def test_positive_tail_entry_rejected_at_positive_degree(self):
        # both pairing conditions hold, but one multiplicity is negative
        # (n = 10 is the smallest rank where that can happen)
        v = PicClass(10, (3, 1) + (-1,) * 9)
        assert pairing(v, v) == -1
        assert pairing(v, canonical_class(10)) == -1
        assert not is_minus_one_class(v)

    def test_multiplicity_bound_is_implied_by_the_equations(self):
        # sum m^2 = d^2 + 1 already forces every m <= d, so no vector can
        # fail the predicate on the upper bound alone; check on a sweep
        for c in enumerate_minus_one(8, 6):
            d = c.coords[0]
            assert all(-x <= d for x in c.coords[1:])


class TestEnumeration:
    @pytest.mark.parametrize("n,count", sorted(CURVE_COUNTS.items()))
    def test_counts(self, n, count):
        assert len(enumerate_minus_one(n, 6)) == count

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_brute_force(self, n):
        mine = {c.coords for c in enumerate_minus_one(n, 6)}
        assert mine == brute_force_minus_one(n, 6)

    def test_degree_seven_matches_oracle(self):
        mine = {c.coords for c in enumerate_minus_one(7, 7)}
        assert mine == brute_force_minus_one(7, 7)

    def test_saturates(self):
        # for n <= 8 the root system is finite: no classes above degree 6
        for n in (3, 6, 8):
            assert len(enumerate_minus_one(n, 6)) == len(enumerate_minus_one(n, 9))

    def test_unbounded_for_ten_points(self):
        # n >= 10 keeps producing classes at every degree
        assert len(enumerate_minus_one(10, 8)) > len(enumerate_minus_one(10, 6))

    def test_every_class_passes_predicate(self):
        for c in enumerate_minus_one(7, 6):
            assert is_minus_one_class(c)

    def test_deterministic_order(self):
        a = enumerate_minus_one(6, 6)
        b = enumerate_minus_one(6, 6)
        assert a == b
        degrees = [c.coords[0] for c in a]
        assert degrees == sorted(degrees)
        for d in set(degrees):
            block = [c.coords for c in a if c.coords[0] == d]
            assert block == sorted(block)

    def test_no_duplicates(self):
        classes = enumerate_minus_one(8, 6)
        assert len(classes) == len(set(classes))

    def test_validates_input(self):
        with pytest.raises(ValueError):
            enumerate_minus_one(2, 5)
        with pytest.raises(ValueError):
            enumerate_minus_one(5, -1)

    @pytest.mark.parametrize("max_degree", [True, 1.0, 2.5])
    def test_rejects_a_non_integer_degree(self, max_degree):
        # a bool is an int, but True is no degree bound
        with pytest.raises(ValueError, match=f"max_degree must be an integer, got {max_degree!r}"):
            enumerate_minus_one(9, max_degree)


class TestWalkEndsWithTheClasses:
    # for n <= 8 the classes are finite, so no degree bound, however
    # large, may cost a walk over the empty degrees past the last class
    HUGE = 10**9
    # the largest d with (3d - 1)^2 <= n (d^2 + 1); the last class has
    # degree 6 at n = 8 and this one elsewhere
    LAST = {3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 7}

    @pytest.mark.parametrize("n", range(3, 9))
    def test_a_huge_bound_matches_degree_seven(self, n, monkeypatch):
        # -K is ample for n <= 8, and -K + 2c pairs to -1 with the
        # (-1)-class c of the top degree only, with square 1 >= 0: its
        # first failure is the last class there is
        top = enumerate_minus_one(n, 7)[-1]
        pushed = anticanonical_class(n) + top * 2
        assert pairing(pushed, pushed) >= 0 and pairing(pushed, top) < 0
        self.degrees_asked(monkeypatch, self.LAST[n])
        classes = enumerate_minus_one(n, self.HUGE)
        count = _count_minus_one(n, self.HUGE, self.HUGE)
        verdicts = [curve_check(v, self.HUGE) for v in (anticanonical_class(n), pushed)]
        assert classes == enumerate_minus_one(n, 7)
        assert count == _count_minus_one(n, 7, self.HUGE) == CURVE_COUNTS[n]
        for v, verdict in zip((anticanonical_class(n), pushed), verdicts):
            at_seven = curve_check(v, 7)
            assert (verdict.verdict, verdict.witness) == (at_seven.verdict, at_seven.witness)
        assert verdicts[0].is_nef() and verdicts[1].witness == top

    @staticmethod
    def degrees_asked(monkeypatch, last: int) -> list[int]:
        """The degrees the walk asks ``_multiplicity_multisets`` for; one
        past ``last`` fails at once, where a walk that never ends hangs."""
        asked = []
        multisets = curves._multiplicity_multisets

        def counted(d, n):
            asked.append(d)
            assert d <= last, f"the walk at n = {n} asked for degree {d} past {last}"
            return multisets(d, n)

        monkeypatch.setattr(curves, "_multiplicity_multisets", counted)
        return asked

    @pytest.mark.parametrize("n, last", sorted(LAST.items()))
    def test_walk_stops_at_the_cauchy_schwarz_degree(self, n, last, monkeypatch):
        asked = self.degrees_asked(monkeypatch, last)
        walked = list(curves._orbits(n, self.HUGE))
        assert asked == list(range(last + 1))
        assert (3 * last - 1) ** 2 <= n * (last * last + 1)
        assert (3 * last + 2) ** 2 > n * ((last + 1) ** 2 + 1)
        assert max(d for d, _ in walked) == min(last, 6)

    def test_walk_runs_to_the_bound_from_nine_points(self, monkeypatch):
        asked = self.degrees_asked(monkeypatch, 12)
        list(curves._orbits(9, 12))
        assert asked == list(range(13))


class TestOrbitSize:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_counts_the_distinct_permutations(self, n):
        multisets = [m for d in range(1, 7) for m in _multiplicity_multisets(d, n)]
        assert multisets
        for m in multisets:
            padded = m + (0,) * (n - len(m))
            orbit = set(itertools.permutations(padded))
            assert _orbit_size(m, n) == len(orbit)
            assert set(_placements(m, n)) == orbit

    def test_all_values_equal(self):
        assert _orbit_size((1, 1, 1), 3) == 1
        assert _orbit_size((), 4) == 1


class TestMultisetsOfOneDegree:
    # nef.curve_check takes the first multiset of a degree that has a
    # violating placement as the only one; this is the pairing fact its
    # proof uses
    @pytest.mark.parametrize("n", [9, 10, 12, 20])
    def test_distinct_multisets_pair_to_at_least_one(self, n):
        for d in range(1, 11):
            multisets = list(_multiplicity_multisets(d, n))
            for a, b in itertools.combinations(multisets, 2):
                # the least pairing over placements: the sorted product
                assert d * d - sum(x * y for x, y in zip(a, b)) >= 1, (a, b)


class TestDecomposition:
    def test_conic_example(self):
        c = PicClass(5, (2, -1, -1, -1, -1, -1))
        dec = decompose_inequality(c)
        assert len(dec.cubics) == 1
        assert dec.total() == c
        assert dec.cubics[0].coords[0] == 1
        assert sum(dec.cubics[0].coords[1:]) == -3
        assert sum(dec.conic.coords[1:]) == -2

    def test_line_is_bare_conic(self):
        c = PicClass(4, (1, -1, -1, 0, 0))
        dec = decompose_inequality(c)
        assert dec.cubics == ()
        assert dec.conic == c

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            decompose_inequality(basis_vector(4, 1))

    def test_non_class_rejected(self):
        with pytest.raises(ValueError):
            decompose_inequality(basis_vector(4, 0))

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_shape_for_all_enumerated(self, n):
        for c in enumerate_minus_one(n, 6):
            d = c.coords[0]
            if d < 1:
                continue
            dec = decompose_inequality(c)
            assert len(dec.cubics) == d - 1
            assert dec.total() == c
            for part in dec.parts():
                assert part.coords[0] == 1
                assert all(x in (0, -1) for x in part.coords[1:])
            assert sum(dec.conic.coords[1:]) == -2
            assert all(sum(q.coords[1:]) == -3 for q in dec.cubics)

    def test_high_degree_class(self):
        # degree 6, the sextic with a double point: (6, -3, -2^7)
        c = PicClass(8, (6, -3, -2, -2, -2, -2, -2, -2, -2))
        assert is_minus_one_class(c)
        dec = decompose_inequality(c)
        assert len(dec.cubics) == 5
        assert dec.total() == c
