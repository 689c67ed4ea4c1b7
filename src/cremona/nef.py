"""Nef-cone decisions on the K-nonpositive side.

For classes v with v.K <= 0 the nef question is decided exactly: reduce
v into the rational polyhedral fundamental cone (the sorted cone with
x_n <= 0, further cut by -K once n >= 10) and read off membership.  The
verdict always carries a machine-checkable witness — a group word for
nef inputs, a violated constraint class otherwise.  ``check_certificate``
(and ``serialize.decode_reduction``) read the cone's inequalities off
the coordinates in O(n), where ``fundamental_cone`` builds its n + 2
dense normals.

``curve_check`` is the complementary necessary condition: pair against
every (-1)-class up to a degree bound, one S_n orbit (multiplicity
multiset) at a time and without listing the classes.  A clean pass is
*not* a proof of nefness (the bound is finite); verdicts are labeled
with the bound.

The K-positive side is rejected outright: nothing here decides it, and
no approximation is attempted.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import le, mul

from . import _EXPORTS, curves, polytopes
from .lattice import PicClass, Record, check_bound, check_class, pairing, set_field
from .weyl import WeylWord, apply_word, reduce_class

__all__ = [*_EXPORTS["nef"], "METHOD_REDUCTION", "METHOD_CURVE_CHECK"]

NEF = "nef"
NOT_NEF = "not_nef"
METHOD_REDUCTION = "reduction_exact"
METHOD_CURVE_CHECK = "curve_check"


class NefVerdict(Record):
    """Outcome of a nef test, stored as its witness and degree bound.

    ``max_degree`` is None for the exact reduction and the bound of a
    curve check otherwise; ``method`` is derived from it
    (METHOD_REDUCTION or METHOD_CURVE_CHECK), and a "nef" curve-check
    verdict only means no violation was found up to that degree.  The
    witness is the violating class for "not_nef", a WeylWord for
    nef-by-reduction and None for a clean curve check, so ``verdict``
    is derived from it too: NOT_NEF exactly when it is a PicClass.  Any
    other witness for the method raises ValueError, and so does a
    ``max_degree`` other than None or an int >= 0.  So does a not-nef
    witness that certifies no class: one of square >= 0 that is not
    ``_effective`` (a witness is the input itself, of square < 0, or
    effective; see check_certificate).
    """

    __slots__ = ("witness", "max_degree")

    def __init__(
        self, witness: WeylWord | PicClass | None, max_degree: int | None = None
    ) -> None:
        if max_degree is not None:
            check_bound("max_degree", max_degree, 0)
        allowed = WeylWord if max_degree is None else type(None)
        if not isinstance(witness, (PicClass, allowed)):
            raise ValueError(
                f"a verdict with max_degree={max_degree!r} cannot have the witness {witness!r}"
            )
        if (
            isinstance(witness, PicClass)
            and pairing(witness, witness) >= 0
            and not _effective(witness)
        ):
            raise ValueError(
                f"not-nef witness {witness.coords} has square >= 0 and is not effective"
            )
        set_field(self, "witness", witness)
        set_field(self, "max_degree", max_degree)

    @property
    def method(self) -> str:
        return METHOD_REDUCTION if self.max_degree is None else METHOD_CURVE_CHECK

    @property
    def verdict(self) -> str:
        return NOT_NEF if isinstance(self.witness, PicClass) else NEF

    def is_nef(self) -> bool:
        return self.verdict == NEF


def fundamental_cone(n: int) -> polytopes.ConePolytope:
    """The rational polyhedral cone whose W-translates cover the
    K-nonpositive nef classes: the sorted cone truncated at x_n <= 0,
    and additionally by -K once that normal has negative square."""
    check_bound("n", n, 3)
    return polytopes.build_P(n) if n <= 9 else polytopes.build_P_minus(n)


def _in_fundamental_cone(coords: tuple[int, ...]) -> bool:
    """Is the class of these coordinates in ``fundamental_cone(n)``?  Its
    inequalities read directly, in O(n) and without building the cone:
    x_0 + x_1 + x_2 + x_3 >= 0, x_1 <= ... <= x_n, x_n <= 0, and from
    n = 10 on -K, 3 x_0 + x_1 + ... + x_n >= 0."""
    n = len(coords) - 1
    check_bound("n", n, 3)
    return (
        sum(coords[:4]) >= 0
        and all(map(le, coords[1:-1], coords[2:]))
        and coords[-1] <= 0
        and (n <= 9 or 2 * coords[0] + sum(coords) >= 0)
    )


def is_nef_K_nonpositive(v: PicClass) -> NefVerdict:
    """Exact nef decision for v with v.K <= 0.

    Reduces v by the group action; nef iff the reduction lands in the
    fundamental cone.  Raises KPositiveError when v.K > 0.
    """
    result = reduce_class(v)
    return NefVerdict(result.witness if result.violated is None else result.violated)


def check_certificate(v: PicClass, verdict: NefVerdict) -> bool:
    """Check a verdict on v against its witness alone, without trusting
    the code that produced it.

    A "nef" verdict is certified by a WeylWord that moves v into
    ``fundamental_cone(n)``; a "not_nef" verdict by a class w with
    w.v < 0 that is either v itself (a nef class has v^2 >= 0) or
    effective (``_effective``), as a nef class pairs >= 0 with every
    effective one.  A clean curve check has no witness, so it is never
    certified, nor is v by a witness that does not fit its n.
    """
    check_class("v", v)
    check_class("verdict", verdict, NefVerdict)
    w = verdict.witness
    if w is None:
        return False
    if verdict.verdict == NOT_NEF:
        return w.n == v.n and pairing(w, v) < 0 and (w == v or _effective(w))
    try:
        moved = apply_word(w, v)
    except ValueError:  # a generator out of range for v's n
        return False
    return _in_fundamental_cone(moved.coords)


def _effective(w: PicClass) -> bool:
    """Is w effective by Riemann-Roch: deg w >= 0 and w^2 >= K.w?

    Then chi(w) = 1 + (w^2 - K.w)/2 >= 1, and h^2(w) = h^0(K - w) = 0
    as K - w has negative degree, so h^0(w) >= 1.  Every (-1)-class
    (w^2 = K.w = -1) passes, and so does -K at n <= 9.
    """
    c = w.coords
    # K = (-3, 1, ..., 1), so K.w = -3 w_0 - sum of the tail
    return c[0] >= 0 and pairing(w, w) >= -3 * c[0] - sum(c[1:])


def _least_pairing(ms, xs: list[int]) -> int:
    """The least sum m_l x_l over the placements on xs (ascending) of the
    multiset ms (its nonzero entries, non-increasing) padded with zeros:
    the largest m meet the smallest x, and the -1 of (-1,) the largest
    (rearrangement inequality)."""
    positive = sum(m > 0 for m in ms)
    return sum(map(mul, ms[:positive], xs)) + sum(
        map(mul, ms[positive:], xs[len(xs) - len(ms) + positive :])
    )


def _last_violation(
    base: int, tail: tuple[int, ...], xs: list[int], ms: tuple[int, ...]
) -> tuple[int, ...] | None:
    """The lexicographically largest placement p on tail of the multiset
    ms (nonzero, non-increasing) padded with zeros, with base + sum p_l
    x_l < 0, or None.  xs is the tail sorted, and each x is deleted from
    a copy of it as it is placed: its m is the largest whose rest can
    still go negative."""
    if base + _least_pairing(ms, xs) >= 0:
        return None
    ms, xs = list(ms), xs.copy()
    placed = []
    for x in tail:
        del xs[bisect_left(xs, x)]
        # a zero is still to place while more positions than ms are left
        values = {*ms, 0} if len(xs) >= len(ms) else set(ms)
        for m in sorted(values, reverse=True):
            rest = ms.copy()
            if m:
                rest.remove(m)
            if base + m * x + _least_pairing(rest, xs) < 0:
                break
        ms = rest
        base += m * x
        placed.append(m)
    return tuple(placed)


def curve_check(v: PicClass, max_degree: int = 6) -> NefVerdict:
    """Necessary nef conditions: v^2 >= 0 and v.c >= 0 for every
    (-1)-class c = (d, -m) of degree <= max_degree, where v.c = d x_0 +
    sum m_l x_l.  Reports the first failure by (degree, coords): the
    largest violating placement of the first multiset with one ((-1,)
    stands for the e_i).  No other multiset of that degree has one.  For
    c != c' of one degree, c.c' >= 0 (Cauchy-Schwarz), and c.c' = 0 makes
    c - c' a root e_i - e_j, a swap within one multiset; so c + c' is in
    the closed positive cone, where v.(c + c') >= 0 once v^2 >= 0 and
    x_0 > 0.  If x_0 < 0, an e_i or a line fails first."""
    check_class("v", v)
    n, x0, tail = v.n, v.coords[0], v.coords[1:]
    check_bound("n", n, 3)
    check_bound("max_degree", max_degree, 0)
    if pairing(v, v) < 0:
        return NefVerdict(v, max_degree)
    xs = sorted(tail)
    for d, ms in curves._orbits(n, max_degree):
        if p := _last_violation(d * x0, tail, xs, ms):
            c = PicClass._trusted(n, (d,) + tuple(-m for m in p))
            return NefVerdict(c, max_degree)
    return NefVerdict(None, max_degree)
