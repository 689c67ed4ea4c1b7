"""Nef membership: exact reduction, the bounded curve check, and their
agreement on K-nonpositive classes."""

import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from cremona.curves import _multiplicity_multisets, enumerate_minus_one
from cremona.lattice import PicClass, anticanonical_class, basis_vector, canonical_class, pairing
from cremona.nef import (
    _last_violation,
    NEF,
    NOT_NEF,
    NefVerdict,
    check_certificate,
    curve_check,
    fundamental_cone,
    is_nef_K_nonpositive,
)
from cremona.polytopes import extremal_rays, membership
from cremona.weyl import KPositiveError, Phi, WeylWord, all_generators, apply_word
from oracles import (
    minkowski,
    reference_curve_check,
    reference_last_violation,
    reference_least_pairing,
)


class TestFundamentalCone:
    def test_dispatch(self):
        assert len(fundamental_cone(9).halfspaces) == 10
        assert len(fundamental_cone(10).halfspaces) == 12
        assert len(fundamental_cone(14).halfspaces) == 16

    def test_minus_k_normal_only_from_ten(self):
        assert anticanonical_class(10) in fundamental_cone(10).all_normals
        assert anticanonical_class(9) not in fundamental_cone(9).all_normals

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fundamental_cone(2)


class TestReductionVerdict:
    def test_line_class_is_nef(self):
        v = basis_vector(9, 0)
        res = is_nef_K_nonpositive(v)
        assert res.is_nef() and res.verdict == NEF
        assert res.method == "reduction_exact"
        assert isinstance(res.witness, WeylWord)
        assert apply_word(res.witness, v) == v
        assert check_certificate(v, res)

    def test_nef_witness_lands_in_cone(self):
        v = PicClass(9, (6, -3, -2, -2, -1, -1, -1, -1, -1, -1))
        res = is_nef_K_nonpositive(v)
        if res.verdict == NEF:
            assert membership(fundamental_cone(9), apply_word(res.witness, v))

    def test_exceptional_class_is_not_nef(self):
        res = is_nef_K_nonpositive(basis_vector(9, 1))
        assert not res.is_nef() and res.verdict == NOT_NEF
        assert isinstance(res.witness, PicClass)
        assert pairing(res.witness, basis_vector(9, 1)) < 0
        assert check_certificate(basis_vector(9, 1), res)

    def test_k_positive_propagates(self):
        with pytest.raises(KPositiveError):
            is_nef_K_nonpositive(-basis_vector(9, 1))

    def test_anticanonical_nef_at_nine_rejected_past_nine(self):
        assert is_nef_K_nonpositive(anticanonical_class(9)).is_nef()
        # -K . K = n - 9 > 0 from n = 10 on: the K-positive side is refused
        with pytest.raises(KPositiveError):
            is_nef_K_nonpositive(anticanonical_class(10))


class TestCheckCertificate:
    def test_every_reduction_verdict_is_certified(self):
        rng = random.Random(5)
        seen = set()
        for _ in range(300):
            n = rng.choice((4, 6, 9, 10, 13))
            # a large degree makes nef classes common, and a random
            # word hides them from a glance at the coordinates
            v = PicClass(n, (rng.randint(0, 4 * n),) + tuple(rng.randint(-4, 1) for _ in range(n)))
            v = apply_word(WeylWord(tuple(rng.choice(all_generators(n)) for _ in range(8))), v)
            if v.is_zero() or pairing(v, canonical_class(n)) > 0:
                continue
            res = is_nef_K_nonpositive(v)
            seen.add(res.verdict)
            assert check_certificate(v, res), v.coords
        assert seen == {NEF, NOT_NEF}

    def test_nef_certificate_replays_the_word(self):
        v = PicClass(9, (2, -1, -1, -1, 0, 0, 0, 0, 0, 0))
        res = is_nef_K_nonpositive(v)
        assert check_certificate(v, res)
        # the empty word leaves v outside the fundamental cone
        forged = NefVerdict(WeylWord())
        assert not check_certificate(v, forged)

    def test_not_nef_certificate_must_pair_negatively(self):
        v = basis_vector(9, 1)
        res = is_nef_K_nonpositive(v)
        assert check_certificate(v, res)
        forged = NefVerdict(basis_vector(9, 2))
        assert not check_certificate(v, forged)

    def test_forged_not_nef_certificate_for_a_nef_class(self):
        # e_0 is nef, and -e_0 pairs negatively with it: the pairing alone
        # would certify the wrong verdict, but -e_0 is neither e_0 nor
        # effective (its degree is -1): with square 1 it certifies no
        # class, so no verdict takes it as a witness
        e0 = basis_vector(9, 0)
        assert is_nef_K_nonpositive(e0).is_nef()
        assert pairing(-e0, e0) < 0
        for max_degree in (None, 0, 6):
            with pytest.raises(ValueError, match="has square >= 0 and is not effective"):
                NefVerdict(-e0, max_degree)

    def test_not_nef_certificate_is_v_or_effective(self):
        n = 10
        e = [basis_vector(n, k) for k in range(n + 1)]
        # v itself, of square < 0, certifies v
        v = e[0] - e[1] - e[2] - e[3] - e[4]
        assert check_certificate(v, NefVerdict(v))
        # the root e_1 - e_2 pairs to -1 with e_1 but is not effective by
        # Riemann-Roch (square -2 < K.w = 0)
        assert pairing(e[1] - e[2], e[1]) < 0
        assert not check_certificate(e[1], NefVerdict(e[1] - e[2]))
        # a (-1)-class outside the orbit of e_n, and the square-zero
        # quartic it contains, are effective
        quartic = PicClass(n, (4, -2, -2) + (-1,) * 8)
        c = quartic + (e[0] - e[1] - e[2])
        assert c == PicClass(n, (5, -3, -3) + (-1,) * 8)
        v = e[0] - e[1] * 2 - e[2] * 2
        for w in (c, quartic):
            assert pairing(w, v) < 0
            assert check_certificate(v, NefVerdict(w))

    def test_anticanonical_certifies_k_positive_classes_up_to_nine(self):
        # -K has square 9 - n and K.(-K) = n - 9: effective at n <= 9
        for n in (8, 9):
            v = PicClass(n, (1, -1, -1, -1, -1) + (0,) * (n - 4))
            assert pairing(anticanonical_class(n), v) < 0
            assert check_certificate(v, NefVerdict(anticanonical_class(n)))

    def test_witness_that_does_not_fit_the_input_is_refused(self):
        # decode_verdict never sees the input, so it accepts both witnesses
        v = PicClass(9, (6, -3, -2, -2, -2, -1, -1, -1, 0, 0))
        assert check_certificate(v, is_nef_K_nonpositive(v))
        assert check_certificate(v, NefVerdict(WeylWord((Phi(1, 2, 30),)))) is False
        # e_1 certifies itself at n = 10, but not e_1 at n = 9, nor v
        w = basis_vector(10, 1)
        assert check_certificate(w, NefVerdict(w))
        for u in (basis_vector(9, 1), v):
            assert check_certificate(u, NefVerdict(w)) is False

    def test_curve_check_verdicts(self):
        # a violated curve certifies "not nef"; a clean pass certifies nothing
        v = basis_vector(6, 1)
        assert check_certificate(v, curve_check(v))
        line = basis_vector(6, 0)
        assert not check_certificate(line, curve_check(line))

    def test_n3_is_certified_without_warnings(self):
        # the sorted cone at n = 3 is small but a valid fundamental cone
        v = PicClass(3, (2, -1, -1, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = is_nef_K_nonpositive(v)
            assert res.verdict == NEF
            assert check_certificate(v, res)


class TestVerdictBound:
    @pytest.mark.parametrize("max_degree", [True, False, -3, 2.5, 6.0, "6"])
    def test_bound_other_than_none_or_a_nonnegative_int_raises(self, max_degree):
        with pytest.raises(ValueError, match="max_degree must be"):
            NefVerdict(None, max_degree)
        with pytest.raises(ValueError, match="max_degree must be"):
            NefVerdict(basis_vector(9, 1), max_degree)

    def test_curve_check_refuses_a_bool_bound(self):
        with pytest.raises(ValueError, match="max_degree must be an integer, got True"):
            curve_check(basis_vector(6, 0), max_degree=True)

    def test_bounds_it_accepts(self):
        assert NefVerdict(None, 0).max_degree == 0
        assert NefVerdict(basis_vector(9, 1), 7).max_degree == 7
        assert NefVerdict(WeylWord()).max_degree is None


class TestCurveCheck:
    def test_negative_square_short_circuits(self):
        v = PicClass(9, (0, 0, 0, 0, 0, 0, 0, 0, 0, -1))
        res = curve_check(v)
        assert res.verdict == NOT_NEF
        assert res.witness == v
        assert res.method == "curve_check"
        assert res.max_degree == 6

    def test_violating_curve_reported(self):
        v = basis_vector(6, 1)  # pairs -1 with the line through points 1,2
        res = curve_check(v)
        assert res.verdict == NOT_NEF
        assert res.witness in enumerate_minus_one(6, 6)
        assert pairing(res.witness, v) < 0

    def test_nef_has_no_witness(self):
        res = curve_check(basis_vector(6, 0))
        assert res.verdict == NEF and res.witness is None

    def test_max_degree_recorded(self):
        res = curve_check(basis_vector(6, 0), max_degree=3)
        assert res.max_degree == 3

    def test_works_on_k_positive_side_too(self):
        # unlike reduction, the curve check never refuses an input
        v = -basis_vector(6, 1)
        res = curve_check(v)
        assert res.verdict == NOT_NEF  # v^2 = -1 < 0


def push(v, c, j):
    """v + k c with k = v.c + j: then v.c becomes -j."""
    k = pairing(v, PicClass(v.n, c)) + j
    return PicClass(v.n, tuple(a + k * b for a, b in zip(v.coords, c)))


class TestCurveCheckAgainstReference:
    # the largest bound at each n: the reference lists the (-1)-classes by
    # brute force once per n, in about 0.05 s at (9, 8), 1 s at (10, 8)
    # and 1 s at (11, 6); the test takes about 8 s, and (11, 7) would add
    # about 5 s for 387,233 classes
    TOP = {9: 8, 10: 8, 11: 6}

    def draws(self, n, top, rng):
        """(class, bound) pairs: a box (mostly negative squares), a nef
        class moved by a word, and twice that class plus k c for a
        (-1)-class c of degree <= bound (2..bound every second time),
        k > v.c; half of these are pushed off a second class c' of that
        degree with c.c' = 0 too, so that two placements fail there."""
        rays = [r.generator.coords for r in extremal_rays(fundamental_cone(n))]
        gens = all_generators(n)
        by_degree = {d: [] for d in range(top + 1)}
        for c in enumerate_minus_one(n, top):
            by_degree[c.coords[0]].append(c.coords)
        for t in range(128):
            max_degree = rng.randint(4, top)
            if t % 4 == 0:
                yield PicClass(n, tuple(rng.randint(-10, 10) for _ in range(n + 1))), max_degree
                continue
            coeffs = [rng.randint(0, 3) for _ in rays]
            coeffs[rng.randrange(len(rays))] += 1
            v = PicClass(n, tuple(sum(a * r[i] for a, r in zip(coeffs, rays)) for i in range(n + 1)))
            v = apply_word(WeylWord(tuple(rng.choice(gens) for _ in range(rng.randint(0, 8)))), v)
            if t % 4 > 1:
                d = rng.randint(2 * (t % 4 == 3), max_degree)
                c = rng.choice(by_degree[d])
                v = push(v, c, rng.randint(1, 3))
                # swapping two multiplicities that differ by one gives c'
                swaps = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)
                         if abs(c[i] - c[j]) == 1]
                if swaps and rng.random() < 0.5:
                    i, j = rng.choice(swaps)
                    twin = list(c)
                    twin[i], twin[j] = c[j], c[i]
                    assert minkowski(c, twin) == 0
                    v = push(v, twin, 1)
            yield v, max_degree

    def test_matches_reference(self):
        rng = random.Random(2024)
        first_degrees = []
        for n, top in self.TOP.items():
            # the highest bound first: the reference lists the classes once
            for v, max_degree in sorted(self.draws(n, top, rng), key=lambda p: -p[1]):
                res = curve_check(v, max_degree)
                want = reference_curve_check(v.coords, max_degree)
                assert res.max_degree == max_degree and res.method == "curve_check"
                assert res.verdict == (NEF if want is None else NOT_NEF), v.coords
                got = None if res.witness is None else res.witness.coords
                assert got == want, (v.coords, max_degree)
                if want is not None and want != v.coords:
                    first_degrees.append(want[0])
        # the draws reach first failures at every degree, most of them past 1
        assert set(first_degrees) == set(range(9))
        assert sum(d >= 2 for d in first_degrees) >= 100

    def test_rejects_what_enumeration_rejects(self):
        v = basis_vector(6, 0)
        with pytest.raises(ValueError, match="max_degree must be >= 0"):
            curve_check(v, max_degree=-1)
        with pytest.raises(ValueError, match="^n must be >= 3, got 2$"):
            curve_check(PicClass(2, (1, 0, 0)))

    @pytest.mark.parametrize("v, max_degree, message", [
        (PicClass(9, (0, 1, 1, 0, 0, 0, 0, 0, 0, 0)), -1, "max_degree must be >= 0"),
        (PicClass(9, (3, -1, 0, 0, 0, 0, 0, 0, 0, 0)), -1, "max_degree must be >= 0"),
        (PicClass(2, (0, 1, 1)), 6, "n must be >= 3, got 2"),
    ])
    def test_checks_come_before_the_square(self, v, max_degree, message):
        # the first and the last have a negative square
        with pytest.raises(ValueError, match=message):
            curve_check(v, max_degree)


class TestPlacementAgainstReference:
    # curve_check's placement of one multiset against the old greedy, at
    # sizes where TestCurveCheckAgainstReference cannot list the classes
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        n = data.draw(st.integers(3, 300), label="n")
        degrees = [d for d in range(9) if next(_multiplicity_multisets(d, n), None)]
        d = data.draw(st.sampled_from(degrees), label="d")
        ms = data.draw(st.sampled_from(list(_multiplicity_multisets(d, n))), label="ms")
        # few values, so ties throughout, of both signs
        tail = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n), label="tail"))
        padded = ms + (0,) * (n - len(ms))
        # a violation exactly when the slack is positive, and by every
        # placement once it passes the spread of the pairings
        spread = sum(map(abs, ms)) * (max(tail) - min(tail))
        slack = data.draw(st.integers(-3, spread), label="slack")
        base = -slack - reference_least_pairing(padded, tail)
        got = _last_violation(base, tail, sorted(tail), ms)
        assert got == reference_last_violation(base, tail, padded)
        if got is not None:
            assert sorted(got) == sorted(padded)
            assert base + sum(m * x for m, x in zip(got, tail)) < 0


class TestAgreement:
    @pytest.mark.parametrize("n", [4, 5])
    def test_exhaustive_small_window(self, n):
        # every K-nonpositive class with coordinates in a small box
        span = (-2, -1, 0, 1, 2)
        count = 0
        rng = random.Random(0)
        k = canonical_class(n)
        for _ in range(400):
            v = PicClass(n, tuple(rng.choice(span) for _ in range(n + 1)))
            if v.is_zero() or pairing(v, k) > 0:
                continue
            count += 1
            exact = is_nef_K_nonpositive(v)
            bounded = curve_check(v, max_degree=6)
            assert exact.verdict == bounded.verdict, v.coords
        assert count > 100

    def test_nef_classes_clear_every_curve(self):
        # nonnegative combinations of the fundamental-cone rays are nef,
        # and stay nef under the group action
        rng = random.Random(1)
        rays = [r.generator for r in extremal_rays(fundamental_cone(9))]
        gens = all_generators(9)
        curves = enumerate_minus_one(9, 8)
        for _ in range(25):
            coeffs = [rng.randint(0, 3) for _ in rays]
            if not any(coeffs):
                coeffs[0] = 1
            v = PicClass(9, tuple(
                sum(c * r.coords[i] for c, r in zip(coeffs, rays))
                for i in range(10)
            ))
            word = WeylWord(tuple(rng.choice(gens) for _ in range(rng.randint(0, 6))))
            moved = apply_word(word, v)
            assert is_nef_K_nonpositive(moved).is_nef()
            assert all(pairing(c, moved) >= 0 for c in curves)
