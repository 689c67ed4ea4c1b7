"""Group action: generators, words, sorting, reduction, orbits."""

import hashlib
import json
import pickle
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from cremona import weyl
from cremona.lattice import PicClass, basis_vector, canonical_class, pairing
from cremona.nef import is_nef_K_nonpositive
from cremona.serialize import decode_class, encode_reduction, encode_verdict, encode_word
from cremona.weyl import (
    KPositiveError,
    OrbitResult,
    Phi,
    ReductionResult,
    Sigma,
    WeylWord,
    all_generators,
    apply_generator,
    apply_word,
    fixed_hyperplane_normal,
    orbit,
    reduce_class,
    sort_coordinates,
)
from oracles import (
    coxeter_power_class,
    reference_bubble_sort_word,
    reference_random_move,
    reference_reduce,
)


def vectors(n: int, lo: int = -30, hi: int = 30):
    return st.tuples(*[st.integers(lo, hi) for _ in range(n + 1)]).map(
        lambda c: PicClass(n, c)
    )


def generators(n: int):
    phis = st.tuples(st.integers(1, n - 2), st.integers(1, n), st.integers(1, n)).map(
        lambda t: Phi(*sorted(set(t))[:3]) if len(set(t)) == 3 else Phi(1, 2, 3)
    )
    sigmas = st.integers(1, n - 1).map(Sigma)
    return st.one_of(phis, sigmas)


class TestGenerators:
    def test_phi_validates_ordering(self):
        with pytest.raises(ValueError):
            Phi(2, 1, 3)
        with pytest.raises(ValueError):
            Phi(1, 1, 2)
        with pytest.raises(ValueError):
            Phi(0, 1, 2)

    def test_sigma_validates_index(self):
        with pytest.raises(ValueError):
            Sigma(0)

    @pytest.mark.parametrize(
        "make, indices",
        [(Phi, (True, 2, 3)), (Phi, (1.0, 2, 3)), (Sigma, (True,)), (Sigma, (2.5,))],
    )
    def test_index_that_is_not_an_int_is_refused(self, make, indices):
        # a bool is an int to Python, but encode_word would write it as
        # true, and a float index cannot select a coordinate
        bad = next(i for i in indices if type(i) is not int)
        message = f"^{make.__name__} index must be an integer, got {bad!r}$"
        with pytest.raises(ValueError, match=message):
            make(*indices)

    def test_int_indices_keep_their_messages(self):
        message = r"^Phi indices must satisfy 0 < i < j < k, got Phi\(0,2,3\)$"
        with pytest.raises(ValueError, match=message):
            Phi(0, 2, 3)
        with pytest.raises(ValueError, match=r"^Sigma index must be >= 1, got 0$"):
            Sigma(0)

    def test_out_of_range_rejected(self):
        v = PicClass(3, (1, 0, 0, 0))
        with pytest.raises(ValueError):
            apply_generator(Phi(1, 2, 4), v)
        with pytest.raises(ValueError):
            apply_generator(Sigma(3), v)

    def test_phi_on_line_class(self):
        # e_0 -> 2e_0 - e_1 - e_2 - e_3: the image of a general line
        v = apply_generator(Phi(1, 2, 3), basis_vector(4, 0))
        assert v.coords == (2, -1, -1, -1, 0)

    def test_sigma_swaps(self):
        v = PicClass(4, (5, 1, 2, 3, 4))
        assert apply_generator(Sigma(2), v).coords == (5, 1, 3, 2, 4)

    def test_count(self):
        # C(n,3) quadratic maps plus n-1 transpositions
        assert len(all_generators(5)) == 10 + 4
        assert len(all_generators(9)) == 84 + 8

    @given(vectors(6), vectors(6), generators(6))
    def test_isometry(self, u, v, g):
        assert pairing(apply_generator(g, u), apply_generator(g, v)) == pairing(u, v)

    @given(vectors(6), generators(6))
    def test_involution(self, v, g):
        assert apply_generator(g, apply_generator(g, v)) == v

    @given(generators(6))
    def test_fixes_canonical_class(self, g):
        k = canonical_class(6)
        assert apply_generator(g, k) == k

    @given(generators(6))
    def test_fixed_hyperplane_normal(self, g):
        # the normal has square -2 and is negated by its own reflection
        u = fixed_hyperplane_normal(g, 6)
        assert pairing(u, u) == -2
        assert apply_generator(g, u) == -u

    def test_fixed_hyperplane_normal_coordinates(self):
        assert fixed_hyperplane_normal(Phi(1, 2, 4), 5).coords == (1, -1, -1, 0, -1, 0)
        assert fixed_hyperplane_normal(Sigma(2), 4).coords == (0, 0, 1, -1, 0)

    def test_sigma_as_phi_word(self):
        # phi_134 phi_234 phi_134 acts as the transposition (1 2)
        word = WeylWord((Phi(1, 3, 4), Phi(2, 3, 4), Phi(1, 3, 4)))
        rng = random.Random(7)
        for _ in range(100):
            v = PicClass(5, tuple(rng.randint(-20, 20) for _ in range(6)))
            assert apply_word(word, v) == apply_generator(Sigma(1), v)


class TestWords:
    def test_reversed_inverts(self):
        word = WeylWord((Phi(1, 2, 3), Sigma(2), Phi(1, 2, 4), Sigma(1)))
        v = PicClass(4, (7, -3, 1, 0, -2))
        assert apply_word(word.reversed(), apply_word(word, v)) == v

    def test_concatenation(self):
        a, b = WeylWord((Sigma(1),)), WeylWord((Sigma(2),))
        assert (a + b).gens == (Sigma(1), Sigma(2))
        assert len(a + b) == 2

    def test_iterates_in_order(self):
        word = WeylWord((Sigma(2), Sigma(1)))
        assert list(word) == [Sigma(2), Sigma(1)]

    @pytest.mark.parametrize("gens, bad", [
        (("x",), "x"), ("ab", "a"), ((Phi(1, 2, 3), 3), 3), ([Sigma(1), None], None),
    ])
    def test_refuses_an_item_that_is_not_a_generator(self, gens, bad):
        message = f"^a WeylWord holds Phi and Sigma generators only, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            WeylWord(gens)

    def test_builds_from_any_iterable_of_generators(self):
        assert WeylWord([Sigma(1), Phi(1, 2, 3)]).gens == (Sigma(1), Phi(1, 2, 3))
        assert WeylWord(iter(())).gens == ()

    @given(vectors(6), st.lists(generators(6), max_size=40))
    def test_word_is_generators_in_turn(self, v, gens):
        expected = v
        for g in gens:
            expected = apply_generator(g, expected)
        assert apply_word(WeylWord(tuple(gens)), v) == expected
        assert apply_word(iter(gens), v) == expected

    def test_out_of_range_mid_word_raises(self):
        v = PicClass(4, (3, -1, 0, -1, 0))
        word = WeylWord((Sigma(1), Phi(1, 2, 3), Phi(2, 3, 5), Sigma(9)))
        with pytest.raises(ValueError, match=r"^Phi\(2,3,5\) out of range for n=4$"):
            apply_word(word, v)
        with pytest.raises(ValueError, match=r"^Sigma\(4\) out of range for n=4$"):
            apply_word([Phi(1, 2, 4), Sigma(4), Phi(1, 2, 3)], v)

    @pytest.mark.parametrize("g", [Phi(2, 4, 6), Sigma(5)])
    def test_fixed_hyperplane_normal_past_n_raises(self, g):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(g))} out of range for n=5$"):
            fixed_hyperplane_normal(g, 5)
        assert pairing(fixed_hyperplane_normal(g, 6), fixed_hyperplane_normal(g, 6)) == -2

    @pytest.mark.parametrize("item", [object(), "x", (1, 2, 3), 5, None])
    def test_non_generator_raises_value_error(self, item):
        v = PicClass(4, (3, -1, 0, -1, 0))
        message = f"^a WeylWord holds Phi and Sigma generators only, got {re.escape(repr(item))}$"
        with pytest.raises(ValueError, match=message):
            apply_word([Sigma(1), item], v)
        with pytest.raises(ValueError, match=message):
            apply_generator(item, v)
        with pytest.raises(ValueError, match=message):
            fixed_hyperplane_normal(item, 4)


class TestSortCoordinates:
    @given(vectors(7))
    def test_sorts_and_witnesses(self, v):
        s, word = sort_coordinates(v)
        assert list(s.coords[1:]) == sorted(v.coords[1:])
        assert s.coords[0] == v.coords[0]
        assert apply_word(word, v) == s
        assert all(isinstance(g, Sigma) for g in word.gens)

    def test_already_sorted_is_identity(self):
        v = PicClass(4, (3, -2, -1, 0, 5))
        s, word = sort_coordinates(v)
        assert s == v and len(word) == 0


def reversed_tail(n: int) -> tuple[int, ...]:
    """(0, -1, ..., -(n - 1)): n(n - 1)/2 inversions, the most at n."""
    return tuple(range(0, -n, -1))


LONG_TAILS = {
    "reversed": reversed_tail(1000),
    "last key far out": tuple(range(1, 1000)) + (0,),  # n - 1 passes
    "first key far out": (1000,) + tuple(range(999)),  # one pass
}


def stable_order(keys) -> list[int]:
    """The indices 1..len(keys) in the order a stable sort of ``keys``
    puts them, keys[i - 1] being coordinate i."""
    return sorted(range(1, len(keys) + 1), key=lambda i: keys[i - 1])


def sort_word(keys, length: int) -> list[int]:
    """The stable bubble sort's word of ``keys``, spelled as the library
    spells it: weyl._spell on weyl._inversion_table's table."""
    table, _ = weyl._inversion_table(stable_order(keys), length)
    return weyl._spell(table)


class TestSortWordAgainstReference:
    """weyl._spell reads the bubble sort's word off the inversion table;
    the oracle runs the passes."""

    @staticmethod
    def assert_same_word(keys):
        assert sort_word(keys, 0) == reference_bubble_sort_word(keys)

    @settings(max_examples=300)
    @given(st.lists(st.integers(-5, 5), max_size=30))
    def test_tails_with_ties(self, keys):
        self.assert_same_word(keys)

    @pytest.mark.parametrize("keys", LONG_TAILS.values(), ids=LONG_TAILS)
    def test_long_tails(self, keys):
        self.assert_same_word(keys)

    def test_the_reversed_tail_shares_one_sigma_per_index(self):
        n = 1500
        witness = reduce_class(PicClass(n, (n * n,) + reversed_tail(n))).witness
        assert len(witness) == n * (n - 1) // 2
        assert len({id(g) for g in witness.gens}) == n - 1


class TestWitnessLength:
    """_inversion_table returns the witness's length, s phi steps plus the
    sort's swaps, and the word stores that count as its len."""

    @settings(max_examples=300)
    @given(st.lists(st.integers(-5, 5), max_size=30), st.integers(0, 5))
    def test_the_length_is_counted_once(self, keys, s):
        order = stable_order(keys)
        table, length = weyl._inversion_table(order, s)
        assert length == s + len(weyl._spell(table))
        steps = [1, 2, 3] * s
        assert len(WeylWord._of_ints(steps, order)) == length


class TestWitnessCap:
    """A witness holds at most 2 * REDUCE_MAX_STEPS generators, phi steps
    and transpositions together.  (0, -1, ..., -1999) has 1,999,000
    inversions, and a last key of -1000 adds 1,000 more: exactly the cap."""

    CAP = 2 * weyl.REDUCE_MAX_STEPS
    MESSAGE = f"^the witness needs more than {CAP} generators$"

    @pytest.mark.parametrize("last, ok", [(-1000, True), (-1001, False)])
    def test_a_sort_word_of_exactly_the_cap_is_admitted(self, last, ok):
        v = PicClass(2001, (0,) + reversed_tail(2000) + (last,))
        if ok:
            assert len(sort_coordinates(v)[1]) == self.CAP
        else:
            with pytest.raises(ValueError, match=self.MESSAGE):
                sort_coordinates(v)

    @pytest.mark.parametrize("last, ok", [(-1000, True), (-1001, False)])
    def test_a_reduction_witness_of_exactly_the_cap_is_admitted(self, last, ok):
        v = PicClass(2001, (2001**2,) + reversed_tail(2000) + (last,))
        if ok:
            res = reduce_class(v)
            assert res.iterations == 0 and len(res.witness) == self.CAP
        else:
            with pytest.raises(ValueError, match=self.MESSAGE):
                reduce_class(v)

    @pytest.mark.parametrize("phi_steps, ok", [(1000, True), (1001, False)])
    def test_phi_steps_count_toward_the_cap(self, phi_steps, ok):
        keys = reversed_tail(2000)
        if ok:
            assert len(sort_word(keys, phi_steps)) + phi_steps == self.CAP
        else:
            with pytest.raises(ValueError, match=self.MESSAGE):
                sort_word(keys, phi_steps)


class TestWitnessCapBoundsTheWork:
    """A sort past the witness cap is refused once the inversions counted
    pass it, after O(n log n + cap) work, not after building its whole
    table: at n = 2 * 10^5 these tails have 2 * 10^10 and 10^10
    inversions, whose table takes seconds to build (memmove in
    list.insert), and are refused in a few hundredths of a second."""

    N = 200_000
    MESSAGE = TestWitnessCap.MESSAGE

    def refused_quickly(self, call, *args):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=self.MESSAGE):
            call(*args)
        assert time.perf_counter() - start < 0.5

    def test_sort_coordinates_of_a_reversed_tail(self):
        self.refused_quickly(sort_coordinates, PicClass(self.N, (0,) + reversed_tail(self.N)))

    def test_a_decoded_two_value_tail(self):
        n = self.N
        obj = {"n": n, "coords": [n * n] + [0] * (n - n // 2) + [-1] * (n // 2)}
        self.refused_quickly(lambda: is_nef_K_nonpositive(decode_class(obj)))


class TestReduce:
    def test_needs_nonzero(self):
        with pytest.raises(ValueError):
            reduce_class(PicClass(3, (0, 0, 0, 0)))

    def test_rejects_k_positive(self):
        # -e_1 pairs positively with K, so reduction does not apply
        with pytest.raises(KPositiveError):
            reduce_class(-basis_vector(9, 1))

    def test_quadratic_example(self):
        res = reduce_class(PicClass(9, (2, -1, -1, -1, 0, 0, 0, 0, 0, 0)))
        assert res.status == ReductionResult.IN_CONE
        assert res.reduced.coords == (1,) + (0,) * 9
        assert res.witness.gens == (Phi(1, 2, 3),)
        assert res.iterations == 1

    def test_exceptional_class_is_not_nef(self):
        # e_1 is K-nonpositive but pairs negatively with some (-1)-curve
        res = reduce_class(basis_vector(9, 1))
        assert res.status == ReductionResult.NOT_NEF
        assert pairing(res.violated, basis_vector(9, 1)) < 0

    def test_in_cone_input_stays_put_modulo_sorting(self):
        v = PicClass(9, (3, 0, -1, -1, 0, -1, 0, 0, 0, 0))
        res = reduce_class(v)
        assert res.status == ReductionResult.IN_CONE
        assert list(res.reduced.coords[1:]) == sorted(v.coords[1:])
        assert res.iterations == 0

    def test_anticanonical_reduces_to_itself_at_nine(self):
        v = PicClass(9, (3,) + (-1,) * 9)
        res = reduce_class(v)
        assert res.status == ReductionResult.IN_CONE
        assert res.reduced == v

    def test_anticanonical_is_k_positive_past_nine(self):
        # K^2 = 9 - n < 0 from n = 10 on, so -K pairs positively with K
        with pytest.raises(KPositiveError):
            reduce_class(PicClass(10, (3,) + (-1,) * 10))

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            reduce_class(PicClass(2, (1, 0, 0)))

    @given(vectors(9, -12, 12))
    @settings(max_examples=300)
    def test_outcome_contracts(self, v):
        if v.is_zero():
            return
        if pairing(v, canonical_class(9)) > 0:
            with pytest.raises(KPositiveError):
                reduce_class(v)
            return
        res = reduce_class(v)
        assert apply_word(res.witness, v) == res.reduced
        if res.status == ReductionResult.IN_CONE:
            x = res.reduced.coords
            assert x[0] + x[1] + x[2] + x[3] >= 0
            assert list(x[1:]) == sorted(x[1:]) and x[9] <= 0
            assert res.violated is None
        else:
            assert pairing(res.violated, v) < 0

    def test_witness_word_applies_exactly(self):
        rng = random.Random(3)
        for _ in range(50):
            v = PicClass(10, tuple(rng.randint(-8, 8) for _ in range(11)))
            if v.is_zero() or pairing(v, canonical_class(10)) > 0:
                continue
            res = reduce_class(v)
            assert apply_word(res.witness, v) == res.reduced


def k_nonpositive(n: int, lo: int = -30, hi: int = 30):
    return vectors(n, lo, hi).filter(
        lambda v: not v.is_zero() and pairing(v, canonical_class(n)) <= 0
    )


class TestCompactWitness:
    """A witness keeps its phi steps and its sort as ints; every reading
    of it matches the word of its materialized generators."""

    @settings(max_examples=150)
    @given(st.integers(3, 20).flatmap(lambda n: k_nonpositive(n, -12, 12)))
    def test_a_compact_witness_reads_as_its_generators(self, v):
        res = reduce_class(v)
        w = res.witness
        # read before gens is built: these take the ints
        read = (len(w), encode_word(w), apply_word(w, v), res.iterations, res.sort_swaps)
        copy = WeylWord(tuple(w.gens))
        copied = ReductionResult(res.reduced, copy, res.violated)
        assert read == (
            len(copy), encode_word(copy), apply_word(copy, v), copied.iterations, copied.sort_swaps
        )
        assert w == copy and hash(w) == hash(copy) and repr(w) == repr(copy)
        assert pickle.loads(pickle.dumps(w)) == copy and list(w) == list(copy)
        assert res.sort_swaps == len(w) - res.iterations

    def test_a_witness_at_another_n_applies_as_its_generators(self):
        w = sort_coordinates(PicClass(5, (0, 5, 4, 3, 2, 1)))[1]
        with pytest.raises(ValueError, match=r"^Sigma\(3\) out of range for n=3$"):
            apply_word(w, PicClass(3, (0, 1, 2, 3)))
        assert apply_word(w, PicClass(6, (0, 5, 4, 3, 2, 1, 9))).coords == (0, 1, 2, 3, 4, 5, 9)


class TestReductionCap:
    """c^p (3, -2, -1^4, 0^4) takes p/2 phi steps (coxeter_power_class)."""

    @pytest.mark.parametrize("n", [9, 10])
    def test_deep_class_within_the_cap_reduces(self, n):
        res = reduce_class(PicClass(n, coxeter_power_class(2 * 10**5, n)))
        assert res.status == "in_cone" and res.iterations == 10**5

    @pytest.mark.parametrize("cap, ok", [(10, True), (9, False)])
    def test_a_reduction_of_exactly_the_cap_is_admitted(self, monkeypatch, cap, ok):
        monkeypatch.setattr(weyl, "REDUCE_MAX_STEPS", cap)
        v = PicClass(9, coxeter_power_class(20, 9))  # 10 steps
        if ok:
            assert reduce_class(v).iterations == 10
        else:
            with pytest.raises(ValueError, match="cap of 9 phi steps"):
                reduce_class(v)

    @pytest.mark.parametrize("n, cap", [(10, 1000), (100, 1000), (101, 990), (200, 500)])
    def test_the_cap_shrinks_with_n_past_one_hundred(self, monkeypatch, n, cap):
        # a step moves O(n) list entries; the class takes 1000 steps at every n
        monkeypatch.setattr(weyl, "REDUCE_MAX_STEPS", 1000)
        v = PicClass(n, coxeter_power_class(2000, 10) + (0,) * (n - 10))
        if cap == 1000:
            assert reduce_class(v).iterations == 1000
        else:
            with pytest.raises(ValueError, match=f"^reduction passed the cap of {cap} phi steps$"):
                reduce_class(v)


def assert_matches_reference(v: PicClass) -> None:
    res = reduce_class(v)
    status, reduced, iterations, violated = reference_reduce(v.coords)
    assert res.status == status
    assert res.reduced.coords == reduced
    assert res.iterations == iterations
    assert (None if res.violated is None else res.violated.coords) == violated
    # the witness is the phi steps plus one word that sorts the tail
    assert apply_word(res.witness, v) == res.reduced
    assert len(res.witness) <= res.iterations + v.n * (v.n - 1) // 2


class TestReduceAgainstReference:
    @given(st.integers(3, 14).flatmap(k_nonpositive))
    @settings(max_examples=300)
    def test_random_classes(self, v):
        assert_matches_reference(v)

    @given(st.integers(3, 14).flatmap(lambda n: k_nonpositive(n, -3, 3)))
    @settings(max_examples=200)
    def test_small_coordinates_with_ties(self, v):
        # narrow boxes make equal tail coordinates, where the order of
        # ties decides which generator word (and violated class) comes out
        assert_matches_reference(v)

    @given(st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_deep_words(self, seed):
        rng = random.Random(seed)
        n = 12
        # a tail in -3..0 under a degree >= 12 lies in the fundamental
        # cone once sorted; a positive tail coordinate makes it not nef
        top = rng.choice((0, 1))
        base = (rng.randint(12, 40),) + tuple(rng.randint(-3, top) for _ in range(n))
        v = PicClass(n, reference_random_move(base, 500, rng))
        assert_matches_reference(v)


def pinned_batch() -> list[PicClass]:
    """K-nonpositive classes for n = 9..20: nef and not-nef interior
    points moved by up to 3000 random generators, and narrow-box classes
    (coordinates in -2..2, so many tail coordinates tie) moved the same
    way."""
    rng = random.Random(2026)
    batch = []
    for n in range(9, 21):
        for length in (0, 10, 100, 1000, 3000):
            for top in (0, 1):  # top = 1 allows a positive tail: not nef
                base = (rng.randint(n, 3 * n),) + tuple(
                    rng.randint(-3, top) for _ in range(n)
                )
                batch.append(PicClass(n, reference_random_move(base, length, rng)))
            while True:
                base = tuple(rng.randint(-2, 2) for _ in range(n + 1))
                if any(base) and 3 * base[0] + sum(base[1:]) >= 0:
                    break
            batch.append(PicClass(n, reference_random_move(base, length, rng)))
    return batch


# sha256 of the verdicts and reductions of pinned_batch(), frozen from the
# phi loop that re-sorted the whole tail after each step and built every
# generator afresh.  The witness word depends on how ties are broken, so
# this pins the exact words, not only their validity.
PINNED_SHA256 = "978352ea416066ffbc7352b1be86b2ca915db80f1162f548a95da528d3a832f2"


def culprit_of(res: ReductionResult) -> PicClass:
    """The violated constraint of the reduced state, as ``reduce_class``
    documents it: e_n, since every not-nef result has x_n > 0."""
    y, n = res.reduced.coords, res.reduced.n
    assert y[n] > 0
    return basis_vector(n, n)


def assert_pull_back_is_the_word(v: PicClass) -> bool:
    """For a not-nef result, the violated class is the culprit moved by
    the reversed public witness word; True if v was not nef."""
    res = reduce_class(v)
    if res.status != ReductionResult.NOT_NEF:
        return False
    assert res.violated == apply_word(res.witness.reversed(), culprit_of(res))
    assert pairing(res.violated, v) < 0
    return True


def test_pull_back_matches_the_witness_word_on_the_pinned_batch():
    # 115 of the 180 pinned classes are not nef
    assert sum(map(assert_pull_back_is_the_word, pinned_batch())) == 115


@given(st.integers(3, 16).flatmap(lambda n: k_nonpositive(n, -2, 2)))
@settings(max_examples=300)
def test_pull_back_matches_the_witness_word_with_ties(v):
    # coordinates in -2..2 make many equal tail values, where the tie
    # order decides both the sort word and the pulled-back class
    assert_pull_back_is_the_word(v)


@given(
    st.integers(3, 16).flatmap(
        lambda n: st.sampled_from([2, 5, 30]).flatmap(lambda r: k_nonpositive(n, -r, r))
    )
)
@settings(max_examples=500)
def test_not_nef_means_a_positive_last_coordinate(v):
    # the input is K-nonpositive and W keeps it so: a reduced state with
    # x_n <= 0 and x_0 <= 0 would be the zero class, and with x_0 > 0 the
    # loop stops only inside the cone; so e_n is always the culprit
    res = reduce_class(v)
    if res.status == ReductionResult.NOT_NEF:
        assert res.reduced.coords[-1] > 0
        e_n = basis_vector(v.n, v.n)
        assert res.violated == apply_word(res.witness.reversed(), e_n)
    else:
        assert res.reduced.coords[-1] <= 0


def test_witnesses_are_pinned():
    batch = pinned_batch()
    assert len(batch) == 180
    doc = [
        [encode_verdict(is_nef_K_nonpositive(v)), encode_reduction(reduce_class(v))]
        for v in batch
    ]
    assert {d[0]["verdict"] for d in doc} == {"nef", "not_nef"}
    text = json.dumps(doc, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256


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
