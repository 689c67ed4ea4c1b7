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
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import starmap

from .lattice import PicClass, Record, canonical_class, pairing, set_field

__all__ = [
    "Generator",
    "Phi",
    "Sigma",
    "WeylWord",
    "ReductionResult",
    "apply_generator",
    "apply_word",
    "fixed_hyperplane_normal",
    "sort_coordinates",
    "reduce_class",
    "all_generators",
    "orbit",
    "OrbitResult",
]


class Phi(Record):
    """phi_{ijk}: the lattice action of the quadratic map based at points i<j<k."""

    __slots__ = ("i", "j", "k")

    def __init__(self, i: int, j: int, k: int) -> None:
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
        if i < 1:
            raise ValueError(f"Sigma index must be >= 1, got {i}")
        set_field(self, "i", i)

    def __repr__(self) -> str:
        return f"Sigma({self.i})"


Generator = Phi | Sigma


class WeylWord(Record):
    """A finite sequence of generators, applied left to right."""

    __slots__ = ("gens",)

    def __init__(self, gens: tuple[Generator, ...] = ()) -> None:
        set_field(self, "gens", gens if isinstance(gens, tuple) else tuple(gens))

    def __len__(self) -> int:
        return len(self.gens)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.gens)

    def __add__(self, other: "WeylWord") -> "WeylWord":
        return WeylWord(self.gens + other.gens)

    def reversed(self) -> "WeylWord":
        """The word read backwards; inverts the composition since every
        generator is an involution."""
        return WeylWord(self.gens[::-1])


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
    Z^{1,n}, overwriting them; raise ValueError at the first generator
    out of range for n, and TypeError at the first item that is not a
    generator."""
    for g in gens:
        if isinstance(g, Phi):
            i, j, k = g.i, g.j, g.k
            if k > n:
                raise ValueError(f"{g!r} out of range for n={n}")
            x0, xi, xj, xk = x[0], x[i], x[j], x[k]
            x[0] = 2 * x0 + xi + xj + xk
            x[i] = -x0 - xj - xk
            x[j] = -x0 - xi - xk
            x[k] = -x0 - xi - xj
        elif isinstance(g, Sigma):
            i = g.i
            if i + 1 > n:
                raise ValueError(f"{g!r} out of range for n={n}")
            x[i], x[i + 1] = x[i + 1], x[i]
        else:
            raise TypeError(f"not a Phi or Sigma generator: {g!r}")


def apply_generator(g: Generator, v: PicClass) -> PicClass:
    """Apply a single generator to a class."""
    x = list(v.coords)
    _apply_in_place(x, (g,), v.n)
    return PicClass._trusted(v.n, tuple(x))


def apply_word(w: WeylWord | Iterable[Generator], v: PicClass) -> PicClass:
    """Apply the generators of ``w`` left to right to a class."""
    x = list(v.coords)
    _apply_in_place(x, w, v.n)
    return PicClass._trusted(v.n, tuple(x))


def fixed_hyperplane_normal(g: Generator, n: int) -> PicClass:
    """The integer normal of the hyperplane the generator reflects across.

    phi_{ijk} fixes (e_0 - e_i - e_j - e_k)^perp, sigma_i fixes
    (e_i - e_{i+1})^perp; both normals have square -2.  Anything else
    raises TypeError.
    """
    if isinstance(g, Phi):
        if g.k > n:
            raise ValueError(f"{g!r} out of range for n={n}")
        coords = [0] * (n + 1)
        coords[0] = 1
        coords[g.i] = coords[g.j] = coords[g.k] = -1
        return PicClass(n, tuple(coords))
    if not isinstance(g, Sigma):
        raise TypeError(f"not a Phi or Sigma generator: {g!r}")
    if g.i + 1 > n:
        raise ValueError(f"{g!r} out of range for n={n}")
    coords = [0] * (n + 1)
    coords[g.i] = 1
    coords[g.i + 1] = -1
    return PicClass(n, tuple(coords))


def sort_coordinates(v: PicClass) -> tuple[PicClass, WeylWord]:
    """Sort x_1 <= ... <= x_n with a stable bubble sort, recording the swaps.

    The returned word w satisfies apply_word(w, v) == sorted vector, and
    being the bubble-sort decomposition it is a canonical reduced
    expression of the sorting permutation.
    """
    tail = list(v.coords[1:])
    word = _bubble_sort_word(tail)
    return PicClass._trusted(v.n, (v.coords[0], *tail)), WeylWord(tuple(word))


def _bubble_sort_word(keys: list) -> list[Sigma]:
    """Sort ``keys`` in place by stable bubble sort and return its swaps,
    keys[i - 1] being coordinate i: swapping keys[i - 1] and keys[i] is
    Sigma(i).  Every Sigma(i) in the word is one shared instance."""
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

    ``status`` is "in_cone" or "not_nef".  ``reduced`` is the final
    state, with sorted tail, and ``witness`` the word with
    apply_word(witness, input) == reduced: ``iterations`` phi steps,
    each at some sorted triple Phi(i, j, k), then one word of at most
    n(n-1)/2 transpositions that sorts the tail.  For "not_nef",
    ``violated`` is a class c with pairing(c, input) < 0 (the violated
    constraint pulled back to the input by the reversed witness word).
    """

    __slots__ = ("status", "reduced", "witness", "violated", "iterations")

    def __init__(
        self,
        status: str,
        reduced: PicClass,
        witness: WeylWord,
        violated: PicClass | None = None,
        iterations: int = 0,
    ) -> None:
        set_field(self, "status", status)
        set_field(self, "reduced", reduced)
        set_field(self, "witness", witness)
        set_field(self, "violated", violated)
        set_field(self, "iterations", iterations)

    IN_CONE = "in_cone"
    NOT_NEF = "not_nef"


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
    bisect c - s, b - s, a - s back into ``vals``, in that order and each
    ahead of any equal value, putting each index at the same place in
    ``order``: the order a stable re-sort would give, ties included.
    The witness word and the violated class depend on that tie order.
    Each step records its sorted index triple, and after the loop each
    triple becomes its shared Phi instance; each Sigma of the sort word
    is shared too.  Then sort the tail with one transposition word.  The
    result is "in_cone" once
    x_0 + x_1 + x_2 + x_3 >= 0 and x_n <= 0 in sorted coordinates (the
    remaining cone inequality 3x_0 >= -sum x_i holds throughout because
    it is W-invariant and holds on the input).  Otherwise the sorted
    vector has x_n > 0, and no translate of the cone contains v: report
    "not_nef" with the violated class e_n (in sorted coordinates), which
    pairs to -x_n < 0, pulled back to the input by putting it in index
    order through ``order`` (the inverse of the sort word) and then
    replaying the recorded triples backwards in integer arithmetic.
    """
    if v.n < 3:
        raise ValueError(f"reduction needs n >= 3, got n={v.n}")
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
    while x0 > 0:
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
    triples = iter(steps)
    word: list[Generator] = list(starmap(_phi, zip(triples, triples, triples)))
    phi_count = len(word)
    rank = [0] * n  # rank[i - 1]: the sorted position of index i
    for position, i in enumerate(order):
        rank[i - 1] = position
    word.extend(_bubble_sort_word(rank))
    reduced = PicClass._trusted(n, (x0, *vals))
    witness = WeylWord(tuple(word))
    if x0 + vals[0] + vals[1] + vals[2] >= 0 and vals[-1] <= 0:
        return ReductionResult(
            ReductionResult.IN_CONE, reduced, witness, iterations=phi_count
        )
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
    return ReductionResult(
        ReductionResult.NOT_NEF, reduced, witness, violated, phi_count
    )


def all_generators(n: int) -> list[Generator]:
    """Every phi_{ijk} (i<j<k<=n) and every sigma_i (i<=n-1)."""
    gens: list[Generator] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                gens.append(Phi(i, j, k))
    for i in range(1, n):
        gens.append(Sigma(i))
    return gens


class OrbitResult(Record):
    """The classes of a bounded orbit, and whether a bound cut it short."""

    __slots__ = ("classes", "truncated")

    def __init__(self, classes: tuple[PicClass, ...], truncated: bool) -> None:
        set_field(self, "classes", classes)
        set_field(self, "truncated", truncated)


def orbit(
    v: PicClass,
    max_degree: int | None = None,
    max_count: int | None = None,
) -> OrbitResult:
    """Breadth-first closure of v under all generators.

    With ``max_degree`` set, only classes of degree <= max_degree are
    kept or expanded (the closure within the degree-bounded subgraph).
    With ``max_count``, BFS layers are filled in lexicographic order
    until the budget is hit, and the result is flagged truncated.  A
    ``max_degree`` below 0 or a ``max_count`` below 1 raises ValueError.
    The returned classes are sorted lexicographically.
    """
    if max_degree is None and max_count is None:
        raise ValueError("need max_degree or max_count to bound the orbit")
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    if max_count is not None and max_count < 1:
        raise ValueError(f"max_count must be >= 1, got {max_count}")
    if max_degree is not None and v.coords[0] > max_degree:
        return OrbitResult((), False)

    gens = all_generators(v.n)
    seen: set[PicClass] = {v}
    frontier = [v]
    truncated = False
    while frontier:
        candidates: set[PicClass] = set()
        for u in frontier:
            for g in gens:
                w = apply_generator(g, u)
                if w in seen or w in candidates:
                    continue
                if max_degree is not None and w.coords[0] > max_degree:
                    continue
                candidates.add(w)
        layer = sorted(candidates, key=lambda c: c.coords)
        if max_count is not None and len(seen) + len(layer) > max_count:
            room = max_count - len(seen)
            layer = layer[:room]
            truncated = True
        seen.update(layer)
        frontier = layer
        if truncated:
            break
    return OrbitResult(tuple(sorted(seen, key=lambda c: c.coords)), truncated)
