"""The Cremona group action on Z^{1,n}: generators, words, reduction, orbits.

The group W is generated by the quadratic transformations phi_{ijk}
(one for each triple of blown-up points) together with the coordinate
transpositions sigma_i = (i, i+1).  Every generator is an involutive
isometry of the pairing and fixes the canonical class K.

``reduce_class`` is the workhorse: it moves any K-nonpositive integer
class into the fundamental cone, or else produces a violated curve
class proving the input is not nef.  It keeps the tail x_1..x_n as two
parallel lists, the values in sorted order and their indices: while
x_0 plus the three smallest values is negative, it applies phi at the
indices of those three (each application strictly decreases x_0, so
the loop terminates) and bisects the three new values back in.  The
witness is those phi steps followed by one word of transpositions that
sorts the tail.  A not-nef verdict pulls the violated class back by
replaying the recorded index triples in integer arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, islice, starmap

from . import _EXPORTS, curves
from .lattice import PicClass, Record, as_tuple, canonical_class, check_bound, pairing, set_field

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


class WeylWord(Record):
    """A finite sequence of generators, applied left to right (ValueError at any other item)."""

    __slots__ = ("gens",)

    def __init__(self, gens: tuple[Generator, ...] = ()) -> None:
        gens = as_tuple("gens", gens)
        if not set(map(type, gens)) <= {Phi, Sigma}:
            for g in gens:
                _reach(g)
        set_field(self, "gens", gens)

    def __len__(self) -> int:
        return len(self.gens)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.gens)

    def __add__(self, other: "WeylWord") -> "WeylWord":
        return WeylWord._trusted(self.gens + other.gens)

    def reversed(self) -> "WeylWord":
        """The word read backwards; inverts the composition since every
        generator is an involution."""
        return WeylWord._trusted(self.gens[::-1])


# Shared generator instances for the reduction.  A phi step is keyed by
# its sorted triple: C(n, 3) keys, 1,140 at n = 20, where the unsorted
# triple would give up to six times as many.  The bounds keep a
# long-lived process that reduces at many n from growing without limit.
@lru_cache(maxsize=8192)
def _phi(i: int, j: int, k: int) -> Phi:
    return Phi(i, j, k)


@lru_cache(maxsize=1024)
def _sigma(i: int) -> Sigma:
    return Sigma(i)


def _apply_in_place(x: list[int], gens: Iterable[Generator], n: int) -> None:
    """Apply ``gens`` left to right to the coordinates ``x`` of a class in
    Z^{1,n}, overwriting them; ValueError at the first generator out of
    range for n or non-generator (_reach's dispatch, inline for speed)."""
    for g in gens:
        if type(g) is Phi:
            i, j, k = g.i, g.j, g.k
            if k > n:
                raise ValueError(f"{g!r} out of range for n={n}")
            x0, xi, xj, xk = x[0], x[i], x[j], x[k]
            x[0] = 2 * x0 + xi + xj + xk
            x[i] = -x0 - xj - xk
            x[j] = -x0 - xi - xk
            x[k] = -x0 - xi - xj
        elif type(g) is Sigma:
            i = g.i
            if i + 1 > n:
                raise ValueError(f"{g!r} out of range for n={n}")
            x[i], x[i + 1] = x[i + 1], x[i]
        else:
            _reach(g)  # raises: g is not a generator


def apply_generator(g: Generator, v: PicClass) -> PicClass:
    """Apply a single generator to a class."""
    return apply_word((g,), v)


def apply_word(w: WeylWord | Iterable[Generator], v: PicClass) -> PicClass:
    """Apply the generators of ``w`` left to right to a class."""
    x = list(v.coords)
    _apply_in_place(x, as_tuple("word", w), v.n)
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


def sort_coordinates(v: PicClass) -> tuple[PicClass, WeylWord]:
    """Sort x_1 <= ... <= x_n with a stable bubble sort, recording the swaps.

    The returned word w satisfies apply_word(w, v) == sorted vector, and
    being the bubble-sort decomposition it is a canonical reduced
    expression of the sorting permutation.
    """
    tail = list(v.coords[1:])
    word = _bubble_sort_word(tail)
    return PicClass._trusted(v.n, (v.coords[0], *tail)), WeylWord._trusted(tuple(word))


def _bubble_sort_word(keys: list) -> list[Sigma]:
    """Sort ``keys`` in place by stable bubble sort and return its swaps,
    keys[i - 1] being coordinate i: swapping keys[i - 1] and keys[i] is
    Sigma(i).  Each Sigma(i) comes from ``_sigma``, whose cache holds
    1,024 of them (and ``_phi``'s 8,192 triples), so the word shares one
    instance per i only while len(keys) <= 1,025; past that, an evicted
    Sigma(i) is built anew."""
    word: list[Sigma] = []
    changed = True
    while changed:
        changed = False
        for i in range(1, len(keys)):
            if keys[i - 1] > keys[i]:
                keys[i - 1], keys[i] = keys[i], keys[i - 1]
                word.append(_sigma(i))
                changed = True
    return word


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
    None, else "not_nef") and ``iterations`` (the number of Phi in
    ``witness``) are derived from them.
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
        return sum(isinstance(g, Phi) for g in self.witness.gens)


class KPositiveError(ValueError):
    """Raised for inputs on the K-positive side, where reduction says nothing."""


# The count of phi steps can grow like sqrt(x_0): c^p (3, -2, -1^4, 0^4)
# takes p/2 steps for the Coxeter element c = phi(1,2,3) sigma_1...sigma_8.
# A step moves O(n) list entries: 10^6 steps take 0.92 s at n = 10 and
# 1.16 s at n = 100 (2-vCPU Linux machine, Python 3.11.7).
REDUCE_MAX_STEPS = 10**6


def reduce_class(v: PicClass) -> ReductionResult:
    """Reduce a K-nonpositive integer class into the fundamental cone.

    The tail is kept as two parallel lists: ``vals``, the tail values in
    sorted order, and ``order``, the index 1..n of each, ties kept in
    their previous order (so the sorted view is the one a stable sort of
    the tail would give).  Loop: while x_0 > 0 and s = x_0 + a + b + c
    is negative, where a <= b <= c are the three smallest values, apply
    phi at their indices: x_0 gains s, which strictly decreases it, and
    a, b, c each lose s.  Take the three off the front of both lists and
    bisect c - s, b - s, a - s back into ``vals``, in that order and each
    ahead of any equal value, putting each index at the same place in
    ``order``: the order a stable re-sort would give, ties included.
    The witness word and the violated class depend on that tie order.
    Each step records its sorted index triple, and after the loop each
    triple becomes its Phi instance, shared through ``_phi``'s cache of
    8,192 triples; each Sigma of the sort word is shared the same way,
    through ``_sigma``'s cache of 1,024.  Then sort the tail with one
    transposition word.  The result is "in_cone" once
    x_0 + x_1 + x_2 + x_3 >= 0 and x_n <= 0 in sorted coordinates (the
    remaining cone inequality 3x_0 >= -sum x_i holds throughout because
    it is W-invariant and holds on the input).  Otherwise the sorted
    vector has x_n > 0, and no translate of the cone contains v: report
    "not_nef" with the violated class e_n (in sorted coordinates), which
    pairs to -x_n < 0, pulled back to the input by putting it in index
    order through ``order`` (the inverse of the sort word) and then
    replaying the recorded triples backwards in integer arithmetic.

    Past REDUCE_MAX_STEPS * 100 // max(n, 100) phi steps it raises ValueError.
    """
    check_bound("n", v.n, 3)
    if v.is_zero():
        raise ValueError("cannot reduce the zero class")
    if pairing(v, canonical_class(v.n)) > 0:
        raise KPositiveError(
            "K-positive side not supported: pairing(v, K) > 0 "
            "(equivalently 3*x_0 < -sum(x_i))"
        )

    n = v.n
    x = v.coords
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
    triples = iter(steps)
    word: list[Generator] = list(starmap(_phi, zip(triples, triples, triples)))
    rank = [0] * n  # rank[i - 1]: the sorted position of index i
    for position, i in enumerate(order):
        rank[i - 1] = position
    word.extend(_bubble_sort_word(rank))
    reduced = PicClass._trusted(n, (x0, *vals))
    witness = WeylWord._trusted(tuple(word))
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
    back = reversed(steps)
    for k, j, i in zip(back, back, back):
        t = culprit[0] + culprit[i] + culprit[j] + culprit[k]
        culprit[0] += t
        culprit[i] -= t
        culprit[j] -= t
        culprit[k] -= t
    violated = PicClass._trusted(n, tuple(culprit))
    return ReductionResult(reduced, witness, violated)


def all_generators(n: int) -> list[Generator]:
    """Every phi_{ijk} (i<j<k<=n) and every sigma_i (i<=n-1)."""
    check_bound("n", n, 1)
    phis: list[Generator] = [Phi(*t) for t in combinations(range(1, n + 1), 3)]
    return phis + [Sigma(i) for i in range(1, n)]


class OrbitResult(Record):
    """The sorted classes of a bounded orbit, and whether ``max_count`` cut it short."""

    __slots__ = ("classes", "truncated")


def orbit(v: PicClass, max_degree: int | None = None, *, max_count: int) -> OrbitResult:
    """The closure of v under all generators, classes of degree above
    ``max_degree`` (if given) left out: a union of S_n orbits, as
    transpositions keep the degree.  It walks their representatives
    (x_0, sorted tail) layer by layer, each layer sorted, applying phi
    once per value triple a <= b <= c of the tail (x_0 gains s = x_0 +
    a + b + c, and a, b, c lose s), and stops once the orbit sizes pass
    the required ``max_count``: each representative adds a class, so
    the walk ends even on an infinite closure.  ``truncated`` is set
    exactly when the closure has more than ``max_count`` classes; the
    result is then the whole orbits walked before and the
    lexicographically first classes of the last one, ``max_count`` in
    all.  A ``max_degree`` or ``max_count`` that is not an int (a bool
    is not), or is below 0 or 1 respectively, raises ValueError.
    """
    if max_degree is not None:
        check_bound("max_degree", max_degree, 0)
    check_bound("max_count", max_count, 1)
    if max_degree is not None and v.coords[0] > max_degree:
        return OrbitResult((), False)

    layer = [(v.coords[0], *sorted(v.coords[1:]))]
    seen = set(layer)
    walked = []  # (x_0, the negated nonzero tail values) of each representative
    count = 0
    truncated = False
    while layer and not truncated:
        successors = set()
        for x0, *tail in layer:
            negated = tuple(-x for x in tail if x)
            walked.append((x0, negated))
            count += curves._orbit_size(negated, v.n)
            truncated = count > max_count
            if truncated:
                break
            counts = Counter(tail)
            for a, b, c in combinations_with_replacement(sorted(counts), 3):
                # the tail must hold a, b and c as three distinct entries
                if (a == b and counts[a] < 2 + (b == c)) or (b == c and counts[c] < 2):
                    continue
                s = x0 + a + b + c
                if max_degree is None or x0 + s <= max_degree:
                    moved = tail.copy()
                    for x in (a, b, c):
                        moved.remove(x)
                    successors.add((x0 + s, *sorted(moved + [a - s, b - s, c - s])))
        layer = sorted(successors - seen)
        seen.update(layer)
    # an orbit's placements of the negated values, negated back, ascend
    classes = (
        PicClass._trusted(v.n, (x0, *[-x for x in p]))
        for x0, negated in walked
        for p in curves._placements(negated, v.n)
    )
    classes = islice(classes, max_count)
    return OrbitResult(tuple(sorted(classes, key=lambda c: c.coords)), truncated)
