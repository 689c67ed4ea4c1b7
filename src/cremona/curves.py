"""(-1)-curve classes: predicate, enumeration, and inequality decomposition.

A (-1)-class is c with c^2 = -1 and c.K = -1.  Writing
c = (d, -m_1, ..., -m_n) these conditions become the Diophantine system

    sum m_l   = 3d - 1,
    sum m_l^2 = d^2 + 1,      0 <= m_l <= d,

whose degree-0 solutions are the e_i.  Enumeration iterates over
non-increasing multiplicity multisets (tiny) and then expands each to
all coordinate placements.

``decompose_inequality`` realizes each degree-d class as a sum of d-1
"cubic" normals e_0 - e_i - e_j - e_k and one "conic" normal
e_0 - e_j1 - e_j2, greedily peeling off the three largest
multiplicities at each step.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from math import factorial

from .lattice import PicClass, Record, basis_vector, canonical_class, pairing, set_field

__all__ = [
    "MinusOneClass",
    "Decomposition",
    "is_minus_one_class",
    "enumerate_minus_one",
    "decompose_inequality",
]

MinusOneClass = PicClass  # alias: a PicClass that passes is_minus_one_class


class Decomposition(Record):
    """d-1 cubic normals plus one conic normal summing to the class."""

    __slots__ = ("cubics", "conic")

    def __init__(self, cubics: tuple[PicClass, ...], conic: PicClass) -> None:
        set_field(self, "cubics", cubics)
        set_field(self, "conic", conic)

    def parts(self) -> tuple[PicClass, ...]:
        return self.cubics + (self.conic,)

    def total(self) -> PicClass:
        for c in self.cubics:
            self.conic._check_same_lattice(c)
        columns = zip(*(p.coords for p in self.parts()))
        return PicClass._trusted(self.conic.n, tuple(map(sum, columns)))


def is_minus_one_class(v: PicClass) -> bool:
    """True iff v is a (-1)-curve class: v^2 = -1, v.K = -1, and the
    multiplicity bounds 0 <= m_l <= d hold (for d = 0 this forces v = e_i)."""
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
    sum m = 3d - 1 and sum m^2 = d^2 + 1 and every m <= d."""
    target_sum = 3 * d - 1
    target_sq = d * d + 1

    def rec(prefix: list[int], top: int, s: int, q: int, slots: int) -> Iterator[tuple[int, ...]]:
        if s == 0:
            if q == 0:
                yield tuple(prefix)
            return
        if slots == 0 or top == 0:
            return
        # remaining sum s over <= slots parts each <= top; squares bounded by
        # top*s (since each part m contributes m^2 <= top*m)
        if s > top * slots or q > top * s or q < _min_square_sum(s, top, slots):
            return
        for m in range(min(top, s), 0, -1):
            if m * m > q:
                continue
            prefix.append(m)
            yield from rec(prefix, m, s - m, q - m * m, slots - 1)
            prefix.pop()

    yield from rec([], d, target_sum, target_sq, n)


def _min_square_sum(s: int, top: int, slots: int) -> int:
    # least possible sum of squares of <= slots parts each <= top summing to s:
    # spread as evenly as possible
    if slots == 0:
        return 0 if s == 0 else 10 ** 18
    base, extra = divmod(s, slots)
    return (slots - extra) * base * base + extra * (base + 1) * (base + 1)


def _placements(multiset: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    """All distinct length-n vectors whose nonzero entries realize the multiset."""
    counts = Counter(multiset)
    counts[0] = n - len(multiset)
    values = sorted(counts, reverse=True)

    def rec(remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for val in values:
            if counts[val] > 0:
                counts[val] -= 1
                for rest in rec(remaining - 1):
                    yield (val,) + rest
                counts[val] += 1

    yield from rec(n)


def _orbit_size(multiset: tuple[int, ...], n: int) -> int:
    """How many length-n vectors ``_placements(multiset, n)`` yields: n!
    over the factorial of each value's count, zeros included."""
    counts = Counter(multiset)
    counts[0] = n - len(multiset)
    size = factorial(n)
    for k in counts.values():
        size //= factorial(k)
    return size


def enumerate_minus_one(n: int, max_degree: int) -> list[PicClass]:
    """All (-1)-classes of degree 0..max_degree, sorted by (degree, coords)."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    out: list[PicClass] = []
    out.extend(sorted((basis_vector(n, i) for i in range(1, n + 1)),
                      key=lambda c: c.coords))
    for d in range(1, max_degree + 1):
        block: list[PicClass] = []
        for multiset in _multiplicity_multisets(d, n):
            for placement in _placements(multiset, n):
                block.append(PicClass._trusted(n, (d,) + tuple(-m for m in placement)))
        block.sort(key=lambda c: c.coords)
        out.extend(block)
    return out


def _count_minus_one(n: int, max_degree: int, limit: int) -> int:
    """How many classes ``enumerate_minus_one(n, max_degree)`` returns,
    counted from the multisets without building a class; the count
    stops at the first degree that takes it past ``limit``."""
    total = n
    for d in range(1, max_degree + 1):
        if total > limit:
            break
        total += sum(_orbit_size(m, n) for m in _multiplicity_multisets(d, n))
    return total


def decompose_inequality(c: PicClass) -> Decomposition:
    """Write c = (d, -m_1, ..., -m_n), d >= 1, as d-1 cubics plus a conic.

    Greedy: while d > 1, take the three largest multiplicities (ties to
    the smallest index), emit e_0 - e_i - e_j - e_k, and decrement; at
    d = 1 the remainder is a conic e_0 - e_j1 - e_j2.  The intermediate
    states keep satisfying m_l <= d, which is what makes the greedy
    choice well defined all the way down.
    """
    if not is_minus_one_class(c):
        raise ValueError(f"{c!r} is not a (-1)-curve class")
    d = c.coords[0]
    if d < 1:
        raise ValueError("degree-0 classes decompose trivially; nothing to do")
    n = c.n
    m = [-x for x in c.coords[1:]]  # multiplicities, m[i] for point i+1
    cubics: list[PicClass] = []
    while d > 1:
        # a stable sort, so reverse=True still breaks ties to the smallest index
        picks = sorted(range(n), key=m.__getitem__, reverse=True)[:3]
        coords = [0] * (n + 1)
        coords[0] = 1
        for l in picks:
            coords[l + 1] = -1
            m[l] -= 1
        cubics.append(PicClass._trusted(n, tuple(coords)))
        d -= 1
        if max(m) > d or min(m) < 0:
            raise AssertionError("greedy invariant m_l <= d broke; not a (-1)-class?")
    support = [l for l in range(n) if m[l] > 0]
    if len(support) != 2 or any(m[l] != 1 for l in support):
        raise AssertionError("degree-1 remainder is not a two-point conic")
    coords = [0] * (n + 1)
    coords[0] = 1
    for l in support:
        coords[l + 1] = -1
    return Decomposition(tuple(cubics), PicClass._trusted(n, tuple(coords)))
