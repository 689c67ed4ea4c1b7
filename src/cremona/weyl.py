"""The Cremona group action on Z^{1,n}: generators, words and reduction.

The group W is generated by the quadratic transformations phi_{ijk}
(one for each triple of blown-up points) together with the coordinate
transpositions sigma_i = (i, i+1).  Every generator is an involutive
isometry of the pairing and fixes the canonical class K.

``reduce_class`` is the workhorse: it moves any K-nonpositive integer
class into the fundamental cone by phi steps and one sorting word of
transpositions (ints until ``gens`` is read), or else finds a violated
curve class proving the input is not nef; its docstring has the algorithm.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations

from . import _EXPORTS
from .lattice import (
    PicClass, Record, _Private, as_tuple, canonical_class, check_bound, check_class, pairing, set_field
)

__all__ = [*_EXPORTS["weyl"], "Generator"]


class Phi(Record):
    """phi_{ijk}: the lattice action of the quadratic map based at points i<j<k."""

    __slots__ = ("i", "j", "k")

    def __init__(self, i: int, j: int, k: int) -> None:
        for index in (i, j, k):
            check_bound("Phi index", index)
        if not 0 < i < j < k:
            raise ValueError(f"Phi indices must satisfy 0 < i < j < k, got Phi({i},{j},{k})")
        set_field(self, "i", i)
        set_field(self, "j", j)
        set_field(self, "k", k)

    def __repr__(self) -> str:
        return f"Phi({self.i},{self.j},{self.k})"


class Sigma(Record):
    """sigma_i: the transposition of coordinates x_i and x_{i+1}."""

    __slots__ = ("i",)

    def __init__(self, i: int) -> None:
        check_bound("Sigma index", i, 1)
        set_field(self, "i", i)

    def __repr__(self) -> str:
        return f"Sigma({self.i})"


Generator = Phi | Sigma


def _reach(g: Generator) -> int:
    """The largest coordinate index generator ``g`` moves: k for Phi(i, j, k)
    and i + 1 for Sigma(i); anything that is not a generator raises ValueError."""
    if type(g) is Phi:
        return g.k
    if type(g) is Sigma:
        return g.i + 1
    raise ValueError(f"a WeylWord holds Phi and Sigma generators only, got {g!r}")


class WeylWord(Record, _Private):
    """A finite sequence of generators, applied left to right (ValueError at any other item)."""

    __slots__ = ("gens",)

    def __init__(self, gens: tuple[Generator, ...] = ()) -> None:
        gens = as_tuple("gens", gens)
        if not set(map(type, gens)) <= {Phi, Sigma}:
            for g in gens:
                _reach(g)
        set_field(self, "gens", gens)

    @classmethod
    def _of_ints(cls, steps: list[int], order: list[int]) -> "WeylWord":
        """phi at each triple of ``steps``, then index order[p] to place p, kept as
        tuples with the sort's inversion table and the word's length in the private
        slot until ``gens`` is read; ValueError past the cap."""
        table, length = _inversion_table(order, len(steps) // 3)
        word = object.__new__(cls)
        set_field(word, "_private", (tuple(steps), tuple(order), tuple(table), length))
        return word

    def _ints(self) -> tuple[Iterator[tuple[int, int, int]], list[int]] | None:
        """An iterator of the phi triples and the Sigma indices of a word kept as ints, else None."""
        compact = getattr(self, "_private", None)
        return compact and (zip(*[iter(compact[0])] * 3), _spell(compact[2]))

    def __getattr__(self, name: str):
        # only an unset slot gets here: build gens, one Phi per triple and one Sigma per index
        if name != "gens":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        triples, sort = self._ints()
        triples = list(triples)
        built = {g: Phi(*g) if type(g) is tuple else Sigma(g) for g in {*triples, *sort}}
        set_field(self, "gens", tuple(map(built.__getitem__, triples + sort)))
        return self.gens

    def __len__(self) -> int:
        compact = getattr(self, "_private", None)
        return len(self.gens) if compact is None else compact[3]

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.gens)

    def __add__(self, other: "WeylWord") -> "WeylWord":
        return WeylWord._trusted(self.gens + other.gens)

    def reversed(self) -> "WeylWord":
        """The word read backwards; inverts the composition since every
        generator is an involution."""
        return WeylWord._trusted(self.gens[::-1])


def _apply_in_place(x: list[int], gens: Iterable[Generator], n: int) -> None:
    """Apply ``gens`` left to right to the coordinates ``x`` of a class in
    Z^{1,n}, overwriting them; ValueError at the first generator out of
    range for n or non-generator (_reach's rule)."""
    for g in gens:
        if _reach(g) > n:
            raise ValueError(f"{g!r} out of range for n={n}")
        if type(g) is Phi:
            _phi_in_place(x, ((g.i, g.j, g.k),))
        else:
            i = g.i
            x[i], x[i + 1] = x[i + 1], x[i]


def apply_generator(g: Generator, v: PicClass) -> PicClass:
    """Apply a single generator to a class."""
    return apply_word((g,), v)


def _phi_in_place(x: list[int], triples: Iterable[tuple[int, int, int]]) -> None:
    """Each phi in turn: x_0 gains t = x_0 + x_i + x_j + x_k, and x_i, x_j, x_k each lose t."""
    for i, j, k in triples:
        t = x[0] + x[i] + x[j] + x[k]
        x[0] += t
        x[i] -= t
        x[j] -= t
        x[k] -= t


def apply_word(w: WeylWord | Iterable[Generator], v: PicClass) -> PicClass:
    """Apply ``w``'s generators left to right to a class (a witness's ints in O(steps + n))."""
    check_class("v", v)
    x = list(v.coords)
    compact = getattr(w, "_private", None)
    if compact is None or len(compact[1]) > v.n:  # the generators say which is out of range
        _apply_in_place(x, as_tuple("word", w), v.n)
    else:
        steps, order = compact[:2]
        _phi_in_place(x, zip(*[iter(steps)] * 3))
        x[1 : len(order) + 1] = [x[i] for i in order]
    return PicClass._trusted(v.n, tuple(x))


def fixed_hyperplane_normal(g: Generator, n: int) -> PicClass:
    """The integer normal of the hyperplane the generator reflects across:
    phi_{ijk} fixes (e_0 - e_i - e_j - e_k)^perp, sigma_i fixes
    (e_i - e_{i+1})^perp, both of square -2.  ValueError for anything
    that is not a generator, one out of range for n, or an n not an int."""
    check_bound("n", n)
    if _reach(g) > n:
        raise ValueError(f"{g!r} out of range for n={n}")
    entries = {0: 1, g.i: -1, g.j: -1, g.k: -1} if type(g) is Phi else {g.i: 1, g.i + 1: -1}
    return PicClass._trusted(n, tuple([entries.get(k, 0) for k in range(n + 1)]))


# The count of phi steps can grow like sqrt(x_0): c^p (3, -2, -1^4, 0^4)
# takes p/2 steps for the Coxeter element c = phi(1,2,3) sigma_1...sigma_8.
# A step moves O(n) list entries: 10^6 steps take 0.92 s at n = 10 and
# 1.16 s at n = 100 (2-vCPU Linux machine, Python 3.11.7).
REDUCE_MAX_STEPS = 10**6
_WITNESS_CAP = 2 * REDUCE_MAX_STEPS  # fixed at import: patching REDUCE_MAX_STEPS moves the phi cap only


def sort_coordinates(v: PicClass) -> tuple[PicClass, WeylWord]:
    """v with x_1 <= ... <= x_n sorted, and the stable bubble sort's word w,
    with apply_word(w, v) the sorted class: a canonical reduced expression
    of the sorting permutation.  ValueError past the witness cap."""
    check_class("v", v)
    x = v.coords
    order = sorted(range(1, v.n + 1), key=x.__getitem__)  # stable, as the bubble sort
    return PicClass._trusted(v.n, (x[0], *[x[i] for i in order])), WeylWord._of_ints([], order)


def _inversion_table(order: list[int], length: int) -> tuple[list[int], int]:
    """The inversion table of the sort that puts index order[p] at place p
    (l_j counts the indices below j + 1 placed after it: the greater keys
    left of key j), and ``length`` plus its inversions.  By bisection,
    O(n log n + inversions); ValueError as soon as that sum passes
    _WITNESS_CAP, so a refused sort costs O(n log n + cap): the inserts so
    far moved each index past greater ones placed before it, already counted."""
    placed, table = [], [0] * len(order)  # the indices placed so far, ascending
    for i in order:
        p = bisect_left(placed, i)
        placed.insert(p, i)
        table[i - 1] = l = i - 1 - p
        length += l
        if length > _WITNESS_CAP:
            raise ValueError(f"the witness needs more than {_WITNESS_CAP} generators")
    return table, length


def _spell(table: Sequence[int]) -> list[int]:
    """The index i of each swap Sigma(i) of the stable bubble sort with
    inversion table ``table``.  A key with l_j greater keys to its left
    moves left once in each of the first l_j passes and is never carried
    right before, so pass p swaps it as Sigma(j - p + 1), in increasing j."""
    moving = [j for j, l in enumerate(table) if l]
    word = moving.copy()  # pass 1
    p = 1
    while True:
        moving = [j for j in moving if table[j] > p]  # the keys pass p + 1 moves
        if not moving:
            return word
        word += [j - p for j in moving]
        p += 1


class ReductionResult(Record):
    """Outcome of the fundamental-cone reduction.

    ``reduced`` is the final state, with sorted tail, and ``witness`` the
    word with apply_word(witness, input) == reduced: phi steps, each at
    some sorted triple Phi(i, j, k), then one word of at most n(n-1)/2
    transpositions that sorts the tail.  ``violated`` is None when
    ``reduced`` lies in the fundamental cone, and otherwise a class c
    with pairing(c, input) < 0 (the violated constraint pulled back to
    the input by the reversed witness word).  The record stores only
    these three: ``status`` ("in_cone" exactly when ``violated`` is
    None, else "not_nef"), ``iterations`` and ``sort_swaps`` (the number
    of Phi and of Sigma in ``witness``) are derived from them.
    """

    __slots__ = ("reduced", "witness", "violated")

    def __init__(
        self, reduced: PicClass, witness: WeylWord, violated: PicClass | None = None
    ) -> None:
        set_field(self, "reduced", reduced)
        set_field(self, "witness", witness)
        set_field(self, "violated", violated)

    IN_CONE = "in_cone"
    NOT_NEF = "not_nef"

    @property
    def status(self) -> str:
        return self.IN_CONE if self.violated is None else self.NOT_NEF

    @property
    def iterations(self) -> int:
        compact = getattr(self.witness, "_private", None)
        return len(compact[0]) // 3 if compact else list(map(type, self.witness.gens)).count(Phi)

    sort_swaps = property(lambda self: len(self.witness) - self.iterations)


class KPositiveError(ValueError):
    """Raised for inputs on the K-positive side, where reduction says nothing."""


def reduce_class(v: PicClass) -> ReductionResult:
    """Reduce a K-nonpositive integer class into the fundamental cone.

    The tail is kept as two parallel lists: ``vals``, the tail values in
    sorted order, and ``order``, the index 1..n of each, ties kept in
    their previous order (so the sorted view is the one a stable sort of
    the tail would give).  Loop: while x_0 > 0 and s = x_0 + a + b + c
    is negative, where a <= b <= c are the three smallest values, apply
    phi at their indices: x_0 gains s, which strictly decreases it, and
    a, b, c each lose s.  Take the three off the front of both lists and
    bisect c - s, b - s, a - s back into ``vals``, in that order and
    each ahead of any equal value, putting each index at the same place
    in ``order``: the order a stable re-sort would give, ties included.
    The witness word and the violated class depend on that tie order.
    Each step records its sorted index triple; the witness keeps them,
    ``order`` and the inversion table of its sort as ints
    (``WeylWord._of_ints``).  The result is "in_cone" once x_0 + x_1 +
    x_2 + x_3 >= 0 and x_n <= 0 in sorted coordinates (the remaining
    cone inequality 3x_0 >= -sum x_i holds throughout, as it is
    W-invariant and holds on the input).  Otherwise the sorted vector
    has x_n > 0, and no translate of the cone contains v: report
    "not_nef" with the violated class e_n (in sorted coordinates), which
    pairs to -x_n < 0, pulled back to the input by putting it in index
    order through ``order`` (the inverse of the sort word) and then
    replaying the recorded triples backwards in integer arithmetic.

    Past REDUCE_MAX_STEPS * 100 // max(n, 100) phi steps, or past a
    witness of 2 * REDUCE_MAX_STEPS generators, it raises ValueError.
    """
    check_class("v", v)
    check_bound("n", v.n, 3)
    x = v.coords
    if not any(x):
        raise ValueError("cannot reduce the zero class")
    if pairing(v, canonical_class(v.n)) > 0:
        raise KPositiveError(
            "K-positive side not supported: pairing(v, K) > 0 "
            "(equivalently 3*x_0 < -sum(x_i))"
        )

    n = v.n
    x0 = x[0]
    order = sorted(range(1, n + 1), key=x.__getitem__)
    vals = [x[i] for i in order]
    steps: list[int] = []  # the sorted index triples of the phi steps, flat
    cap = REDUCE_MAX_STEPS * 100 // max(n, 100)
    for _ in range(cap + 1):  # one pass more: it stops, or its step passes the cap
        if x0 <= 0:
            break
        a = vals[0]
        b = vals[1]
        c = vals[2]
        s = x0 + a + b + c
        if s >= 0:
            break
        i = order[0]
        j = order[1]
        k = order[2]
        triple = [i, j, k]
        triple.sort()
        steps += triple
        del vals[:3], order[:3]
        # phi adds s to x_0 and subtracts it from each of a <= b <= c,
        # which keep their order: each search ends where the last began
        x0 += s
        c -= s
        p = bisect_left(vals, c)
        vals.insert(p, c)
        order.insert(p, k)
        b -= s
        p = bisect_left(vals, b, 0, p)
        vals.insert(p, b)
        order.insert(p, j)
        a -= s
        p = bisect_left(vals, a, 0, p)
        vals.insert(p, a)
        order.insert(p, i)
    else:
        raise ValueError(f"reduction passed the cap of {cap} phi steps")
    witness = WeylWord._of_ints(steps, order)
    reduced = PicClass._trusted(n, (x0, *vals))
    if x0 + vals[0] + vals[1] + vals[2] >= 0 and vals[-1] <= 0:
        return ReductionResult(reduced, witness)
    # Not in the cone means x_n > 0.  The input is K-nonpositive,
    # 3x_0 + sum x_i >= 0, and W keeps it so.  If the sorted tail ended
    # <= 0, that would force x_0 > 0, since x_0 <= 0 would leave only the
    # zero class, which was refused and which W never reaches.  With
    # x_0 > 0 the loop stops only at s >= 0, and that is in the cone.
    assert vals[-1] > 0
    # So the violated constraint is e_n, pairing to -x_n < 0, a (-1)-curve.
    # The generators are involutive isometries, so pairing(culprit,
    # reduced) equals the pairing of the pulled-back culprit with the
    # input.  ``order`` is the inverse of the sort word, so the pull-back
    # puts the culprit in index order through it, then undoes the phi
    # steps last to first.
    culprit = [0] * (n + 1)
    culprit[order[-1]] = 1
    _phi_in_place(culprit, zip(*[reversed(steps)] * 3))
    violated = PicClass._trusted(n, tuple(culprit))
    return ReductionResult(reduced, witness, violated)


def all_generators(n: int) -> list[Generator]:
    """Every phi_{ijk} (i<j<k<=n) and every sigma_i (i<=n-1)."""
    check_bound("n", n, 1)
    phis: list[Generator] = [Phi(*t) for t in combinations(range(1, n + 1), 3)]
    return phis + [Sigma(i) for i in range(1, n)]
