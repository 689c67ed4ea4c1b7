"""Exact solution of region R's square systems, cross-checked against sympy:
``solve_unique`` finds a system singular exactly when sympy's rank is
short, and otherwise its solution satisfies every equation."""

import random
from fractions import Fraction

from cremona.linalg import solve_unique
from oracles import sympy_rank


def random_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


class TestSolveUnique:
    def test_solves(self):
        sol = solve_unique([[2, 0], [1, 1]], [4, 5])
        assert sol == (Fraction(2), Fraction(3))

    def test_singular_returns_none(self):
        assert solve_unique([[1, 1], [2, 2]], [1, 2]) is None

    def test_random_round_trip(self):
        rng = random.Random(37)
        solved = 0
        for _ in range(200):
            size = rng.randint(1, 4)
            m = random_matrix(rng, size, size)
            rhs = [rng.randint(-6, 6) for _ in range(size)]
            sol = solve_unique(m, rhs)
            if sol is None:
                assert sympy_rank(m) < size
                continue
            solved += 1
            for row, b in zip(m, rhs):
                assert sum(a * x for a, x in zip(row, sol)) == b
        assert solved > 100  # random square matrices are usually invertible
