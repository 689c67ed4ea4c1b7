"""Independent oracles used to cross-check library results.

Everything in here is deliberately written the dumb way: brute force
over all subsets, plain DFS over coordinate vectors, sympy for linear
algebra.  None of it shares code (or clever ideas) with the package
under test, so agreement is meaningful.  The frozen values at the end
are each written once, for the acceptance suite and the unit tests.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import gcd

import sympy

from cremona.lattice import PicClass, pairing


# ---------------------------------------------------------------------------
# linear algebra via sympy


def sympy_rank(rows) -> int:
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).rank()


def sympy_kernel(rows, ncols):
    mat = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    if mat.rows == 0:
        mat = sympy.zeros(1, ncols)
    return [tuple(Fraction(int(v.p), int(v.q)) for v in vec) for vec in mat.nullspace()]


# ---------------------------------------------------------------------------
# brute-force extremal rays
#
# A ray of the cone {x : u . x >= 0 for all normals u} (the dot here is
# whatever bilinear form the caller encodes in the rows) is extremal iff
# the normals vanishing on it span a hyperplane.  The oracle simply tries
# *every* subset of normals of *every* size, keeps those whose common
# kernel is one-dimensional, orients the kernel vector to satisfy the
# inequalities, and dedupes.


def _primitive_int_vector(vec) -> tuple[int, ...]:
    fracs = [Fraction(x) for x in vec]
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def brute_force_rays(minkowski_rows) -> set[tuple[int, ...]]:
    """All extremal rays of {x : row . x >= 0}, rows in standard-dot form."""
    rows = [tuple(row) for row in minkowski_rows]
    ncols = len(rows[0])
    found: set[tuple[int, ...]] = set()
    for size in range(ncols - 1, len(rows) + 1):
        for subset in itertools.combinations(rows, size):
            kern = sympy_kernel(subset, ncols)
            if len(kern) != 1:
                continue
            ray = _primitive_int_vector(kern[0])
            products = [sum(r * x for r, x in zip(row, ray)) for row in rows]
            if all(p >= 0 for p in products):
                found.add(ray)
            elif all(p <= 0 for p in products):
                found.add(tuple(-x for x in ray))
    return found


# ---------------------------------------------------------------------------
# brute-force Farkas test
#
# target is a nonnegative combination of the normals iff (Caratheodory)
# it is one of some linearly independent subset of them, and then also
# of every basis of their span that contains that subset.  The oracle
# scans every subset of size rank(normals) and solves each full-rank
# one with sympy.


def brute_force_implied(target: PicClass, normals) -> bool:
    """Is target = sum lambda_i u_i with every lambda_i >= 0?"""
    t = sympy.Matrix(target.coords)
    if t.is_zero_matrix:
        return True
    cols = [sympy.Matrix(u.coords) for u in normals]
    if not cols:
        return False
    r = sympy.Matrix.hstack(*cols).rank()
    for subset in itertools.combinations(cols, r):
        basis = sympy.Matrix.hstack(*subset)
        if basis.rank() < r:
            continue
        try:
            solution, _ = basis.gauss_jordan_solve(t)
        except ValueError:  # target outside the span
            return False
        if all(x >= 0 for x in solution):
            return True
    return False


# ---------------------------------------------------------------------------
# brute-force (-1)-classes
#
# Straight search over multiplicity vectors in order, pruned by two
# bounds on the parts still to place: their sum is at most d per part,
# and their squares sum at least to those of the most even split of that
# sum.  Independent of the multiset-then-permute enumeration in the
# package.


def brute_force_minus_one(n: int, max_degree: int) -> set[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()
    for i in range(1, n + 1):
        coords = [0] * (n + 1)
        coords[i] = 1
        out.add(tuple(coords))

    def dfs(pos: int, s: int, q: int, prefix: tuple[int, ...], d: int) -> None:
        if pos == n:
            if s == 3 * d - 1 and q == d * d + 1:
                out.add((d,) + tuple(-m for m in prefix))
            return
        remaining = n - pos
        for m in range(0, d + 1):
            ns, nq = s + m, q + m * m
            if ns > 3 * d - 1 or nq > d * d + 1:
                break
            if ns + (remaining - 1) * d < 3 * d - 1:
                continue
            if remaining > 1:
                base, extra = divmod(3 * d - 1 - ns, remaining - 1)
                if nq + (remaining - 1) * base * base + extra * (2 * base + 1) > d * d + 1:
                    continue
            dfs(pos + 1, ns, nq, prefix + (m,), d)

    for d in range(1, max_degree + 1):
        dfs(0, 0, 0, (), d)
    return out


# ---------------------------------------------------------------------------
# reference reduction
#
# The reduction loop in its plainest form: stable bubble sort of
# x_1..x_n, then phi at the first three coordinates while
# x_0 + x_1 + x_2 + x_3 < 0, and repeat.  Plain lists of ints and its own
# generator arithmetic; the violated class is pulled back through every
# recorded step.


def _reference_phi(x: list[int], i: int, j: int, k: int) -> None:
    x0, xi, xj, xk = x[0], x[i], x[j], x[k]
    x[0] = 2 * x0 + xi + xj + xk
    x[i] = -x0 - xj - xk
    x[j] = -x0 - xi - xk
    x[k] = -x0 - xi - xj


def coxeter_power_class(p: int, n: int) -> tuple[int, ...]:
    """c^p applied to (3, -2, -1, -1, -1, -1, 0, 0, 0, 0), padded with -1
    entries past n = 9, for the Coxeter element c = phi_123 sigma_1 ...
    sigma_8 (applied left to right), which acts on e_0..e_9 only.  Its
    reduction takes p/2 phi steps while x_0 grows like 1.5 p^2.  c^p is
    the p-th power of c's integer matrix, by repeated squaring."""
    columns = []
    for k in range(10):
        x = [int(i == k) for i in range(10)]
        _reference_phi(x, 1, 2, 3)
        for i in range(1, 9):
            x[i], x[i + 1] = x[i + 1], x[i]
        columns.append(x)
    power, square = [[int(i == j) for j in range(10)] for i in range(10)], columns
    while p:  # both hold columns; column j of A B is A applied to column j of B
        if p & 1:
            power = [_apply_columns(square, col) for col in power]
        square = [_apply_columns(square, col) for col in square]
        p >>= 1
    x = (3, -2, -1, -1, -1, -1, 0, 0, 0, 0)
    return tuple(_apply_columns(power, x)) + (-1,) * (n - 9)


def _apply_columns(columns, x) -> list[int]:
    """The matrix with these columns applied to the vector x."""
    return [sum(col[i] * c for col, c in zip(columns, x)) for i in range(len(x))]


def reference_reduce(coords) -> tuple:
    """(status, reduced, phi steps, violated) for a nonzero K-nonpositive
    class, as plain tuples; violated is None for "in_cone"."""
    x = list(coords)
    n = len(x) - 1
    steps: list[int] = []  # 0 is phi_123, i >= 1 swaps x_i and x_{i+1}
    while True:
        swapped = True
        while swapped:
            swapped = False
            for i in range(1, n):
                if x[i] > x[i + 1]:
                    x[i], x[i + 1] = x[i + 1], x[i]
                    steps.append(i)
                    swapped = True
        low = x[0] + x[1] + x[2] + x[3]
        if low >= 0 and x[n] <= 0:
            return "in_cone", tuple(x), steps.count(0), None
        if x[0] <= 0 or low >= 0:
            break
        _reference_phi(x, 1, 2, 3)
        steps.append(0)
    culprit = [0] * (n + 1)
    if x[n] > 0:
        culprit[n] = 1
    elif x[0] < 0:
        culprit[0] = 1
    else:
        culprit[0], culprit[1] = 1, -1
    for step in reversed(steps):
        if step == 0:
            _reference_phi(culprit, 1, 2, 3)
        else:
            culprit[step], culprit[step + 1] = culprit[step + 1], culprit[step]
    return "not_nef", tuple(x), steps.count(0), tuple(culprit)


def reference_bubble_sort_word(keys) -> list[int]:
    """The swaps of a stable bubble sort of ``keys``, as the indices i of
    the transpositions of keys[i - 1] and keys[i]: passes over the list
    until one swaps nothing."""
    keys = list(keys)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(1, len(keys)):
            if keys[i - 1] > keys[i]:
                keys[i - 1], keys[i] = keys[i], keys[i - 1]
                word.append(i)
                changed = True
    return word


def reference_random_move(coords, length: int, rng) -> tuple[int, ...]:
    """coords moved by ``length`` random generators: phi at a random
    triple of points, or a random adjacent transposition."""
    x = list(coords)
    n = len(x) - 1
    for _ in range(length):
        if rng.random() < 0.5:
            _reference_phi(x, *rng.sample(range(1, n + 1), 3))
        else:
            i = rng.randint(1, n - 1)
            x[i], x[i + 1] = x[i + 1], x[i]
    return tuple(x)


# ---------------------------------------------------------------------------
# reference orbit
#
# The bounded orbit as a breadth-first search over coordinate tuples:
# every layer applies every phi_{ijk} and every adjacent transposition
# to every class of the last layer, keeps the new classes within the
# degree bound, and sorts them.  With a count bound, the layer that
# would pass it is cut to its lexicographically first classes, and the
# search stops there.


def _tuple_phi(x: tuple[int, ...], i: int, j: int, k: int) -> tuple[int, ...]:
    y = list(x)
    _reference_phi(y, i, j, k)
    return tuple(y)


def _tuple_sigma(x: tuple[int, ...], i: int) -> tuple[int, ...]:
    return x[:i] + (x[i + 1], x[i]) + x[i + 2 :]


def reference_orbit(coords, max_degree=None, max_count=None) -> tuple[list, bool]:
    """(the sorted classes reached, truncated) as coordinate tuples."""
    start = tuple(coords)
    n = len(start) - 1
    if max_degree is not None and start[0] > max_degree:
        return [], False
    moves = [
        (lambda x, t=t: _tuple_phi(x, *t)) for t in itertools.combinations(range(1, n + 1), 3)
    ] + [(lambda x, i=i: _tuple_sigma(x, i)) for i in range(1, n)]
    seen = {start}
    frontier = [start]
    truncated = False
    while frontier and not truncated:
        candidates = set()
        for u in frontier:
            for move in moves:
                w = move(u)
                if w not in seen and (max_degree is None or w[0] <= max_degree):
                    candidates.add(w)
        layer = sorted(candidates)
        if max_count is not None and len(seen) + len(layer) > max_count:
            layer = layer[: max_count - len(seen)]
            truncated = True
        seen.update(layer)
        frontier = layer
    return sorted(seen), truncated


# ---------------------------------------------------------------------------
# tree canonical form (AHU), for comparing diagrams up to isomorphism
#
# Every diagram we care about is a tree whose edges carry a label.  Two
# such trees are isomorphic iff their canonical encodings agree, rooting
# at the tree's center (or the better of its two centers).


def tree_canonical_form(nodes, labelled_edges) -> str:
    adj: dict[object, list[tuple[object, object]]] = {v: [] for v in nodes}
    for a, b, label in labelled_edges:
        adj[a].append((b, label))
        adj[b].append((a, label))

    def centers() -> list[object]:
        alive = set(nodes)
        degree = {v: len(adj[v]) for v in nodes}
        leaves = [v for v in alive if degree[v] <= 1]
        while len(alive) > 2:
            next_leaves = []
            for leaf in leaves:
                alive.discard(leaf)
                for nb, _ in adj[leaf]:
                    if nb in alive:
                        degree[nb] -= 1
                        if degree[nb] == 1:
                            next_leaves.append(nb)
            leaves = next_leaves
        return sorted(alive, key=str)

    def encode(v, parent) -> str:
        children = sorted(
            f"({label}{encode(nb, v)})"
            for nb, label in adj[v]
            if nb != parent
        )
        return "[" + "".join(children) + "]"

    return min(encode(c, None) for c in centers())


# ---------------------------------------------------------------------------
# reference angle classification
#
# Straight from the definitions, on plain coordinate tuples and with its
# own Minkowski product.  For normals of negative square, cos^2 of the
# angle is (u.v)^2 / (u^2 v^2), a rational.  The angle is pi/m exactly
# when cos(pi/m) = u.v / sqrt(u^2 v^2), which needs u.v > 0 for m > 2;
# by Niven's theorem the rational values of cos^2(pi/m) are the ones in
# the table.  Past cos^2 = 1 the hyperplanes do not meet.


NIVEN_COS2 = {2: Fraction(0), 3: Fraction(1, 4), 4: Fraction(1, 2), 6: Fraction(3, 4)}


def minkowski(a, b) -> int:
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def reference_angle(a, b) -> tuple:
    """(kind, cos2, sign of u.v, m) for two coordinate tuples; ValueError
    when a square is >= 0."""
    p, a2, b2 = minkowski(a, b), minkowski(a, a), minkowski(b, b)
    if a2 >= 0 or b2 >= 0:
        raise ValueError(f"normals need negative squares, got {a2} and {b2}")
    cos2 = Fraction(p * p, a2 * b2)
    sign = (p > 0) - (p < 0)
    if cos2 > 1:
        return "divergent", cos2, sign, None
    if cos2 == 1:
        return ("zero_angle" if p > 0 else "non_submultiple"), cos2, sign, None
    for m, value in NIVEN_COS2.items():
        if cos2 == value and (p > 0 or m == 2):
            return "pi_over", cos2, sign, m
    return "non_submultiple", cos2, sign, None


def reference_angles(normals) -> dict:
    """The angle data of a list of normals (coordinate tuples):

    gram       the Minkowski products, every ordered pair;
    angles     reference_angle of every ordered pair;
    offending  (i, j, angle) for i < j whose angle is not pi/m, zero or
               divergent;
    edges      the Coxeter diagram as (i, j, style, strands, m) for i < j,
               or None when some pair is offending.
    """
    gram = [[minkowski(a, b) for b in normals] for a in normals]
    angles = [[reference_angle(a, b) for b in normals] for a in normals]
    offending, edges = [], []
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            kind, _, _, m = angle = angles[i][j]
            if kind == "non_submultiple":
                offending.append((i, j, angle))
            elif kind == "divergent":
                edges.append((i, j, "dotted", 1, None))
            elif kind == "zero_angle":
                edges.append((i, j, "dashed", 1, None))
            elif m > 2:
                edges.append((i, j, "plain", m - 2, m))
    return {
        "gram": gram,
        "angles": angles,
        "offending": offending,
        "edges": None if offending else edges,
    }


# ---------------------------------------------------------------------------
# reference curve check
#
# The bounded curve test as a plain scan: a negative square first, then
# the classes of brute_force_minus_one in sorted order, which is by
# (degree, coords).  The sorted list is kept per n at the largest bound
# asked for so far, and a smaller bound reads its prefix.

_SORTED_MINUS_ONE: dict[int, tuple[int, list]] = {}


def reference_curve_check(coords, max_degree: int):
    """The first failure as a coordinate tuple (coords itself when its
    square is negative), or None when every class up to max_degree
    pairs nonnegatively with coords."""
    coords = tuple(coords)
    if minkowski(coords, coords) < 0:
        return coords
    n = len(coords) - 1
    bound, classes = _SORTED_MINUS_ONE.get(n, (-1, []))
    if bound < max_degree:
        classes = sorted(brute_force_minus_one(n, max_degree))
        _SORTED_MINUS_ONE[n] = max_degree, classes
    # the Minkowski product with coords, as a dot product with these weights
    weights = (coords[0],) + tuple(-x for x in coords[1:])
    for c in classes:
        if c[0] > max_degree:
            break
        if sum(map(operator.mul, weights, c)) < 0:
            return c
    return None


# ---------------------------------------------------------------------------
# reference placement
#
# The first failing placement of one multiplicity multiset, found by a
# greedy that re-sorts what is left at every position: O(n^2 log n), but
# it needs no list of the classes, so it reaches sizes that
# reference_curve_check cannot.


def reference_least_pairing(ms, xs) -> int:
    """The least sum m_l x_l over the placements of ms on xs (as many):
    the largest m meet the smallest x (rearrangement inequality)."""
    return sum(map(operator.mul, sorted(ms, reverse=True), sorted(xs)))


def reference_last_violation(base: int, tail, ms):
    """The lexicographically largest placement p of the multiset ms (one
    entry per entry of tail, zeros included) with base + sum p_l x_l < 0,
    or None: at each position the largest m whose rest can still go
    negative."""
    tail, ms = tuple(tail), list(ms)
    if base + reference_least_pairing(ms, tail) >= 0:
        return None
    placed = []
    for l, x in enumerate(tail):
        for m in sorted(set(ms), reverse=True):
            ms.remove(m)
            if base + m * x + reference_least_pairing(ms, tail[l + 1 :]) < 0:
                break
            ms.append(m)
        base += m * x
        placed.append(m)
    return tuple(placed)


# ---------------------------------------------------------------------------
# misc


def pairing_matrix(classes: list[PicClass]) -> list[list[int]]:
    return [[pairing(u, v) for v in classes] for u in classes]


# ---------------------------------------------------------------------------
# frozen values, derived by hand or by the oracles above


# the number of (-1)-classes at n = 3..8 (brute_force_minus_one)
CURVE_COUNTS = {3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}

# the 10 extremal rays of P(9), sorted, and the two on the light cone
P9_RAYS = sorted(
    [(1,) + (0,) * 9, (1, -1) + (0,) * 8, (2, -1, -1) + (0,) * 7]
    + [(3,) + (-1,) * k + (0,) * (9 - k) for k in range(3, 10)]
)
P9_BOUNDARY_RAYS = [(1, -1) + (0,) * 8, (3,) + (-1,) * 9]

# the extremal rays of P(10) outside the light cone: -K alone
P10_ESCAPING_RAYS = [(3,) + (-1,) * 10]
