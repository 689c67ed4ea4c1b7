"""(-1)-classes: predicate, enumeration (against the brute-force oracle),
and the cubic/conic decomposition."""

import itertools

import pytest

from cremona.curves import (
    _multiplicity_multisets,
    _orbit_size,
    _placements,
    decompose_inequality,
    enumerate_minus_one,
    is_minus_one_class,
)
from cremona.lattice import PicClass, basis_vector, canonical_class, pairing
from oracles import brute_force_minus_one

KNOWN_COUNTS = {3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


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
    @pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
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
