"""Nef-cone decisions on the K-nonpositive side.

For classes v with v.K <= 0 the nef question is decided exactly: reduce
v into the rational polyhedral fundamental cone (the sorted cone with
x_n <= 0, further cut by -K once n >= 10) and read off membership.  The
verdict always carries a machine-checkable witness — a group word for
nef inputs, a violated constraint class otherwise.

``curve_check`` is the complementary necessary condition: pair against
every (-1)-class up to a degree bound, one S_n orbit (multiplicity
multiset) at a time and without listing the classes.  A clean pass is
*not* a proof of nefness (the bound is finite); verdicts are labeled
with the bound.

The K-positive side is rejected outright: nothing here decides it, and
no approximation is attempted.
"""

from __future__ import annotations

from operator import mul

from . import curves, polytopes
from .lattice import PicClass, Record, pairing, set_field
from .weyl import ReductionResult, WeylWord, apply_word, reduce_class

__all__ = [
    "NEF",
    "NOT_NEF",
    "METHOD_REDUCTION",
    "METHOD_CURVE_CHECK",
    "NefVerdict",
    "fundamental_cone",
    "is_nef_K_nonpositive",
    "curve_check",
    "check_certificate",
]

NEF = "nef"
NOT_NEF = "not_nef"
METHOD_REDUCTION = "reduction_exact"
METHOD_CURVE_CHECK = "curve_check"


class NefVerdict(Record):
    """Outcome of a nef test.

    method is METHOD_REDUCTION (unconditional on the K <= 0 side) or
    METHOD_CURVE_CHECK with max_degree set, in which case a "nef"
    verdict only means no violation was found up to that degree.
    witness is a WeylWord for nef-by-reduction, the violating class for
    not-nef, and None for a clean curve check.
    """

    __slots__ = ("verdict", "method", "witness", "max_degree")

    def __init__(
        self,
        verdict: str,
        method: str,
        witness: WeylWord | PicClass | None,
        max_degree: int | None = None,
    ) -> None:
        set_field(self, "verdict", verdict)
        set_field(self, "method", method)
        set_field(self, "witness", witness)
        set_field(self, "max_degree", max_degree)

    def is_nef(self) -> bool:
        return self.verdict == NEF


def fundamental_cone(n: int) -> polytopes.ConePolytope:
    """The rational polyhedral cone whose W-translates cover the
    K-nonpositive nef classes: the sorted cone truncated at x_n <= 0,
    and additionally by -K once that normal has negative square."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return polytopes.build_P(n) if n <= 9 else polytopes.build_P_minus(n)


def is_nef_K_nonpositive(v: PicClass) -> NefVerdict:
    """Exact nef decision for v with v.K <= 0.

    Reduces v by the group action; nef iff the reduction lands in the
    fundamental cone.  Raises KPositiveError when v.K > 0.
    """
    result = reduce_class(v)
    if result.status == ReductionResult.IN_CONE:
        return NefVerdict(verdict=NEF, method=METHOD_REDUCTION, witness=result.witness)
    return NefVerdict(verdict=NOT_NEF, method=METHOD_REDUCTION, witness=result.violated)


def check_certificate(v: PicClass, verdict: NefVerdict) -> bool:
    """Check a verdict on v against its witness alone, without trusting
    the code that produced it.

    A "nef" verdict is certified by a WeylWord that moves v into
    ``fundamental_cone(n)``; a "not_nef" verdict by a class that pairs
    negatively with v.  A clean curve check has no witness, so it is
    never certified.
    """
    w = verdict.witness
    if verdict.verdict == NEF:
        return isinstance(w, WeylWord) and bool(
            polytopes.membership(fundamental_cone(v.n), apply_word(w, v))
        )
    return isinstance(w, PicClass) and pairing(w, v) < 0


def _least_pairing(ms, xs) -> int:
    # the largest m meet the smallest x (rearrangement inequality)
    return sum(map(mul, sorted(ms, reverse=True), sorted(xs)))


def _last_violation(base: int, tail: tuple[int, ...], ms: list[int]) -> tuple[int, ...] | None:
    """The lexicographically largest placement p of ms with base + sum
    p_l x_l < 0, or None: the largest m whose rest can still go negative."""
    if base + _least_pairing(ms, tail) >= 0:
        return None
    placed = []
    for l, x in enumerate(tail):
        for m in sorted(set(ms), reverse=True):
            ms.remove(m)
            if base + m * x + _least_pairing(ms, tail[l + 1 :]) < 0:
                break
            ms.append(m)
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
    if pairing(v, v) < 0:
        return NefVerdict(NOT_NEF, METHOD_CURVE_CHECK, v, max_degree)
    n, x0, tail = v.n, v.coords[0], v.coords[1:]
    if n < 3 or max_degree < 0:
        raise ValueError(f"need n >= 3, got {n}" if n < 3 else "max_degree must be >= 0")
    for d in range(max_degree + 1):
        for ms in curves._multiplicity_multisets(d, n) if d else [(-1,)]:
            if p := _last_violation(d * x0, tail, [*ms] + [0] * (n - len(ms))):
                c = PicClass._trusted(n, (d,) + tuple(-m for m in p))
                return NefVerdict(NOT_NEF, METHOD_CURVE_CHECK, c, max_degree)
    return NefVerdict(NEF, METHOD_CURVE_CHECK, None, max_degree)
