"""Exact solution of region R's square systems, cross-checked against sympy.

``solve_unique`` reads singularity off the pivots of the private
elimination ``_rref``; TestRank and TestRref check that elimination
directly."""

import random
from fractions import Fraction

from cremona.linalg import _rref, solve_unique
from oracles import sympy_rank


def random_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def rank(rows):
    return len(_rref(rows)[1])


class TestRank:
    def test_small_cases(self):
        assert rank([[1, 0], [0, 1]]) == 2
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([[0, 0], [0, 0]]) == 0
        assert rank([]) == 0

    def test_random_against_sympy(self):
        rng = random.Random(11)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert rank(m) == sympy_rank(m)


class TestRref:
    def test_pivots_are_unit_columns(self):
        rng = random.Random(5)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            red, pivots = _rref(m)
            for r, c in enumerate(pivots):
                assert red[r][c] == 1
                assert all(red[i][c] == 0 for i in range(len(red)) if i != r)

    def test_exact_fractions(self):
        red, pivots = _rref([[2, 1], [0, 3]])
        assert red[0] == [Fraction(1), Fraction(0)]
        assert red[1] == [Fraction(0), Fraction(1)]


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
