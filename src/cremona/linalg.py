"""Exact solution of the small square systems of region R.

Plain Gauss-Jordan elimination on fractions.Fraction.  The systems are
3x3 (three facet planes of region R), so there is nothing to optimize;
the point is exactness and zero dependencies.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

Row = Sequence[int | Fraction]

__all__ = ["solve_unique"]


def _rref(rows: Sequence[Row]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def solve_unique(rows: Sequence[Row], rhs: Sequence[int | Fraction]) -> tuple[Fraction, ...] | None:
    """Solve a square system with a unique solution; None if singular."""
    n = len(rows)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    m, pivots = _rref(aug)
    if pivots != list(range(n)):
        return None
    return tuple(m[i][n] for i in range(n))
