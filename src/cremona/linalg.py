"""Exact solution of the small square systems of region R.

Cramer's rule, each determinant by Laplace expansion along the first
row.  The systems are 3x3 (three facet planes of region R), so there is
nothing to optimize; the point is exactness and zero dependencies.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

Row = Sequence[int | Fraction]

__all__ = ["solve_unique"]


def _det(rows: Sequence[Row]) -> int | Fraction:
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _det([[*row[:j], *row[j + 1 :]] for row in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def solve_unique(rows: Sequence[Row], rhs: Sequence[int | Fraction]) -> tuple[Fraction, ...] | None:
    """Solve a square system with a unique solution; None if singular."""
    det = _det(rows)
    if det == 0:
        return None
    return tuple(
        Fraction(_det([[*row[:i], b, *row[i + 1 :]] for row, b in zip(rows, rhs)]), det)
        for i in range(len(rows))
    )
