"""(-1)-classes: predicate, enumeration, and inequality decomposition.

A (-1)-class is c with c^2 = -1 and c.K = -1.  Writing
c = (d, -m_1, ..., -m_n) these conditions become the Diophantine system

    sum m_l   = 3d - 1,
    sum m_l^2 = d^2 + 1,      0 <= m_l <= d,

whose degree-0 solutions are the e_i, the multiset (-1,).  These are
numerical classes, not all of them (-1)-curves: from n = 10 on not
every one is a W-translate of e_n (45 of degree 5 at n = 10, such as
(5, -3, -3, -1^8), reduce to (3, -1^9, 1)), and that one is the sum
(4, -2, -2, -1^8) + (1, -1, -1) of a square-zero quartic and a line.
Each is effective by Riemann-Roch all the same.  Every walk over the
classes goes one S_n orbit at a time through ``_orbits``, which ends
where the classes end, and an orbit is the set of coordinate
placements of its multiset.  ``_placements`` lists them by Knuth's
next-permutation loop, and ``_orbit_size`` counts them as a product of
binomials.

``decompose_inequality`` realizes each degree-d class as a sum of d-1
"cubic" normals e_0 - e_i - e_j - e_k and one "conic" normal
e_0 - e_j1 - e_j2, greedily peeling off the three largest
multiplicities at each step.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from math import comb, isqrt

from . import _EXPORTS
from .lattice import PicClass, Record, canonical_class, check_bound, pairing

__all__ = [*_EXPORTS["curves"]]

MinusOneClass = PicClass  # alias: a PicClass that passes is_minus_one_class


class Decomposition(Record):
    """d-1 cubic normals plus one conic normal summing to the class."""

    __slots__ = ("cubics", "conic")

    def parts(self) -> tuple[PicClass, ...]:
        return self.cubics + (self.conic,)

    def total(self) -> PicClass:
        for c in self.cubics:
            self.conic._check_same_lattice(c)
        columns = zip(*(p.coords for p in self.parts()))
        return PicClass._trusted(self.conic.n, tuple(map(sum, columns)))


def is_minus_one_class(v: PicClass) -> bool:
    """True iff v is a (-1)-class: v^2 = -1, v.K = -1, and the
    multiplicity bounds 0 <= m_l <= d hold (for d = 0 this forces v = e_i).
    A numerical condition: from n = 10 on some such classes are not
    (-1)-curves (see the module docstring)."""
    if pairing(v, v) != -1 or pairing(v, canonical_class(v.n)) != -1:
        return False
    d = v.coords[0]
    if d < 0:
        return False
    if d == 0:
        # the two pairing conditions already force v = e_i here: the tail
        # satisfies sum x = 1 and sum x^2 = 1, so exactly one entry is +1
        return True
    return all(-d <= x <= 0 for x in v.coords[1:])


def _multiplicity_multisets(d: int, n: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples (m_1 >= ... >= m_r > 0), r <= n, with
    sum m = 3d - 1 and sum m^2 = d^2 + 1 and every m <= d; at d = 0,
    where no m is positive, the one multiset (-1,) of the e_i."""
    if d == 0:
        yield (-1,)
        return
    target_sum = 3 * d - 1
    target_sq = d * d + 1

    def rec(prefix: list[int], top: int, s: int, q: int, slots: int) -> Iterator[tuple[int, ...]]:
        if s == 0:
            if q == 0:
                yield tuple(prefix)
            return
        # remaining sum s over <= slots parts each <= top (none when slots
        # is 0); squares bounded by top*s (each m contributes m^2 <= top*m)
        if s > top * slots or q > top * s or q < _min_square_sum(s, slots):
            return
        for m in range(min(top, s, isqrt(q)), 0, -1):
            prefix.append(m)
            yield from rec(prefix, m, s - m, q - m * m, slots - 1)
            prefix.pop()

    yield from rec([], d, target_sum, target_sq, n)


def _orbits(n: int, max_degree: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(d, multiset) for each S_n orbit of (-1)-classes of degree
    0..max_degree, by degree.  For n <= 8 the walk ends at the largest d
    with (3d - 1)^2 <= n (d^2 + 1), by Cauchy-Schwarz on the m_l: degree
    1, 1, 2, 2, 3, 7 for n = 3..8, however large max_degree is."""
    if n <= 8:
        max_degree = min(max_degree, (3 + isqrt(9 + (9 - n) * (n - 1))) // (9 - n))
    for d in range(max_degree + 1):
        for multiset in _multiplicity_multisets(d, n):
            yield d, multiset


def _min_square_sum(s: int, slots: int) -> int:
    # least possible sum of squares of <= slots (>= 1) parts summing to s:
    # spread as evenly as possible
    base, extra = divmod(s, slots)
    return (slots - extra) * base * base + extra * (base + 1) * (base + 1)


def _placements(multiset: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    """All distinct length-n vectors whose nonzero entries realize the
    multiset, in decreasing lexicographic order: Knuth's Algorithm L
    (TAOCP 4A, 7.2.1.2) with its comparisons reversed, run on the
    multiset padded with zeros and sorted non-increasing."""
    a = sorted(multiset + (0,) * (n - len(multiset)), reverse=True)
    while True:
        yield tuple(a)
        j = n - 2
        while j >= 0 and a[j] <= a[j + 1]:
            j -= 1
        if j < 0:
            return
        l = n - 1
        while a[l] >= a[j]:
            l -= 1
        a[j], a[l] = a[l], a[j]
        a[j + 1 :] = a[:j:-1]


def _orbit_size(multiset: tuple[int, ...], n: int) -> int:
    """How many length-n vectors ``_placements(multiset, n)`` yields: the
    ways to choose positions for each nonzero value's copies in turn."""
    size, free = 1, n
    for k in Counter(multiset).values():
        size *= comb(free, k)
        free -= k
    return size


def enumerate_minus_one(n: int, max_degree: int) -> list[PicClass]:
    """All (-1)-classes of degree 0..max_degree, sorted by (degree, coords)."""
    check_bound("n", n, 3)
    check_bound("max_degree", max_degree, 0)
    coords = sorted(
        (d, *tail)
        for d, multiset in _orbits(n, max_degree)
        for tail in _placements(tuple(-m for m in multiset), n)
    )
    return [PicClass._trusted(n, c) for c in coords]


def _count_minus_one(n: int, max_degree: int, limit: int) -> int:
    """How many classes ``enumerate_minus_one(n, max_degree)`` returns,
    counted from the multisets without building a class; the count
    stops at the first orbit that takes it past ``limit``."""
    total = 0
    for _, multiset in _orbits(n, max_degree):
        total += _orbit_size(multiset, n)
        if total > limit:
            break
    return total


def _e0_minus(n: int, points: list[int]) -> PicClass:
    # e_0 minus e_{l+1} for each l in points: a cubic or a conic normal
    x = [1] + [0] * n
    for l in points:
        x[l + 1] = -1
    return PicClass._trusted(n, tuple(x))


def decompose_inequality(c: PicClass) -> Decomposition:
    """Write c = (d, -m_1, ..., -m_n), d >= 1, as d-1 cubics plus a conic.

    Greedy: while d > 1, take the three largest multiplicities (ties to
    the smallest index), emit e_0 - e_i - e_j - e_k, and decrement; at
    d = 1 the remainder is a conic e_0 - e_j1 - e_j2.  The intermediate
    states keep satisfying m_l <= d, which is what makes the greedy
    choice well defined all the way down.
    """
    if not is_minus_one_class(c):
        raise ValueError(f"{c!r} is not a (-1)-class")
    d = c.coords[0]
    if d < 1:
        raise ValueError("degree-0 classes decompose trivially; nothing to do")
    n = c.n
    m = [-x for x in c.coords[1:]]  # multiplicities, m[i] for point i+1
    cubics: list[PicClass] = []
    while d > 1:
        # a stable sort, so reverse=True still breaks ties to the smallest index
        picks = sorted(range(n), key=m.__getitem__, reverse=True)[:3]
        for l in picks:
            m[l] -= 1
        cubics.append(_e0_minus(n, picks))
        d -= 1
        if max(m) > d or min(m) < 0:
            raise AssertionError("greedy invariant m_l <= d broke; not a (-1)-class?")
    support = [l for l in range(n) if m[l] > 0]
    if len(support) != 2 or any(m[l] != 1 for l in support):
        raise AssertionError("degree-1 remainder is not a two-point conic")
    return Decomposition(tuple(cubics), _e0_minus(n, support))
