"""Nef-cone decisions on the K-nonpositive side.

For classes v with v.K <= 0 the nef question is decided exactly: reduce
v into the rational polyhedral fundamental cone (the sorted cone with
x_n <= 0, further cut by -K once n >= 10) and read off membership.  The
verdict always carries a machine-checkable witness — a group word for
nef inputs, a violated constraint class otherwise.

``curve_check`` is the complementary necessary condition: pair against
every (-1)-class up to a degree bound.  A clean pass is *not* a proof
of nefness (the bound is finite); verdicts are labeled with the bound.

The K-positive side is rejected outright: nothing here decides it, and
no approximation is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import curves, polytopes
from .lattice import PicClass, pairing
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


@dataclass(frozen=True)
class NefVerdict:
    """Outcome of a nef test.

    method is METHOD_REDUCTION (unconditional on the K <= 0 side) or
    METHOD_CURVE_CHECK with max_degree set, in which case a "nef"
    verdict only means no violation was found up to that degree.
    witness is a WeylWord for nef-by-reduction, the violating class for
    not-nef, and None for a clean curve check.
    """

    verdict: str
    method: str
    witness: WeylWord | PicClass | None
    max_degree: int | None = None

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


@lru_cache(maxsize=8)
def _curves(n: int, max_degree: int) -> tuple[PicClass, ...]:
    return tuple(curves.enumerate_minus_one(n, max_degree))


def curve_check(v: PicClass, max_degree: int = 6) -> NefVerdict:
    """Necessary nef conditions: v^2 >= 0 and v.c >= 0 for every
    (-1)-class c of degree <= max_degree.  Reports the first failure."""
    if pairing(v, v) < 0:
        return NefVerdict(
            verdict=NOT_NEF, method=METHOD_CURVE_CHECK, witness=v, max_degree=max_degree
        )
    for c in _curves(v.n, max_degree):
        if pairing(v, c) < 0:
            return NefVerdict(
                verdict=NOT_NEF,
                method=METHOD_CURVE_CHECK,
                witness=c,
                max_degree=max_degree,
            )
    return NefVerdict(
        verdict=NEF, method=METHOD_CURVE_CHECK, witness=None, max_degree=max_degree
    )
