"""Polyhedral cones over hyperbolic polytopes.

A polytope in hyperbolic n-space is described here by the cone over it
in the lattice: a finite list of integer normal vectors u with u^2 < 0,
each contributing the inequality pairing(u, x) >= 0.  This module
builds the named cones (the sorted cone, its truncation at x_n <= 0,
and the further truncation by -K), classifies dihedral angles exactly,
assembles Gram and Cartan matrices, draws Coxeter diagrams, and
computes extremal rays from one integer double-description routine.
A Farkas (implied-inequality) test reads the same routine, except that
with fewer normals than coordinates it first asks whether the normal
lies in their span, by sparse exact elimination, and answers "not
implied" there when it does not.

Everything is exact: angles are decided through the rational invariant
cos^2 = (u.v)^2 / (u^2 v^2), never through floating point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt

from . import _EXPORTS
from .lattice import (
    LightConePosition,
    PicClass,
    Record,
    _Private,
    anticanonical_class,
    as_tuple,
    basis_vector,
    check_bound,
    check_class,
    light_cone_position,
    pairing,
    set_field,
)
from .linalg import solve_unique

# Tuples here are built from lists, tuple([...]), not from generators.
# CPython 3.11 grows a tuple built from an iterator by resizing it, and
# when it is freed it joins the free list of its length without one
# having been taken off.  Only a full garbage collection empties those
# lists, so a caller that makes little garbage, such as a loop over
# build_P_minus, cartan_matrix and coxeter_diagram, keeps up to 2000
# dead tuples of each length up to 20 (2.3 MB after 440 rounds of the
# three over n = 10..20 on Python 3.11.7).

__all__ = [*_EXPORTS["polytopes"], "RegionRRow"]


class Halfspace(Record):
    """The halfspace {x : pairing(normal, x) >= 0}.

    The normal is an unnormalized integer vector with normal^2 < 0, so
    that the bounding hyperplane actually meets hyperbolic space.
    """

    __slots__ = ("normal",)

    def __init__(self, normal: PicClass) -> None:
        check_class("halfspace normal", normal)
        square = pairing(normal, normal)
        if square >= 0:
            raise ValueError(
                f"halfspace normal must have negative self-pairing, "
                f"got {square} for {normal.coords}"
            )
        set_field(self, "normal", normal)

    @classmethod
    def _trusted(cls, normal: PicClass) -> "Halfspace":
        """Record._trusted with the field set directly, one per normal in
        the builders: a PicClass of negative square is the caller's promise."""
        obj = object.__new__(cls)
        set_field(obj, "normal", normal)
        return obj


class ConePolytope(Record, _Private):
    """A cone cut out by halfspaces.

    The halfspace list is *meant* to be minimal (no inequality implied
    by the rest); this is not enforced on construction.  Use
    redundant_constraints() to audit it.
    """

    __slots__ = ("n", "halfspaces")

    def __init__(self, n: int, halfspaces: tuple[Halfspace, ...]) -> None:
        check_bound("n", n, 1)
        halfspaces = as_tuple("halfspaces", halfspaces)
        for h in halfspaces:
            if not isinstance(h, Halfspace):
                raise ValueError(f"a ConePolytope holds Halfspace items only, got {h!r}")
            if h.normal.n != n:
                raise ValueError(f"normal {h.normal.coords} does not live in rank {n + 1}")
        set_field(self, "n", n)
        set_field(self, "halfspaces", halfspaces)

    @property
    def all_normals(self) -> tuple[PicClass, ...]:
        return tuple([h.normal for h in self.halfspaces])


class MembershipResult(Record):
    """The first normal of a cone that a class violates, None if it has
    none; ``contains`` is derived: whether the class lies in the cone."""

    __slots__ = ("violated",)

    @property
    def contains(self) -> bool:
        return self.violated is None

    def __bool__(self) -> bool:
        return self.contains


# ---------------------------------------------------------------------------
# named constructions


def build_P_tilde(n: int) -> ConePolytope:
    """The sorted cone: x_0 >= -x_1-x_2-x_3 and x_1 <= x_2 <= ... <= x_n.

    Normals are v_0 = e_0-e_1-e_2-e_3 and v_i = e_i-e_{i+1} for
    i = 1..n-1.  The cone is not pointed (it contains the line R.K).
    """
    check_bound("n", n, 3)
    return _cone(n, _sorted_normals(n))


def build_P(n: int) -> ConePolytope:
    """The sorted cone truncated at x_n <= 0 (normal e_n appended)."""
    check_bound("n", n, 3)
    return _cone(n, _sorted_normals(n) + [basis_vector(n, n)])


def build_P_minus(n: int) -> ConePolytope:
    """build_P(n) truncated by 3x_0 >= -sum x_i (normal -K appended).

    Only defined for n >= 10: at n = 9 the would-be normal -K has
    square 0 and the inequality is already implied by the others.
    """
    check_bound("n", n, 10)
    return _cone(n, _sorted_normals(n) + [basis_vector(n, n), anticanonical_class(n)])


def _sorted_normals(n: int) -> list[PicClass]:
    """v_0 and v_1, ..., v_{n-1} of build_P_tilde(n), for n >= 3."""
    normals = [PicClass._trusted(n, (1, -1, -1, -1) + (0,) * (n - 3))]
    normals += [
        PicClass._trusted(n, (0,) * i + (1, -1) + (0,) * (n - 1 - i)) for i in range(1, n)
    ]
    return normals


def _cone(n: int, normals: list[PicClass]) -> ConePolytope:
    """The cone of the named normals, built without the public checks:
    their squares are known (-2 for v_0 and v_i, -1 for e_n, 9 - n < 0
    for -K at n >= 10) and each lives in rank n + 1."""
    return ConePolytope._trusted(n, tuple([Halfspace._trusted(u) for u in normals]))


# ---------------------------------------------------------------------------
# membership and Gram data


def membership(P: ConePolytope, v: PicClass) -> MembershipResult:
    """Does v satisfy every inequality of P?  Reports the first violated normal."""
    check_class("P", P, ConePolytope)
    check_class("v", v)
    if v.n != P.n:
        raise ValueError(f"rank mismatch: cone has n = {P.n}, vector has n = {v.n}")
    for u in P.all_normals:
        if pairing(u, v) < 0:
            return MembershipResult(u)
    return MembershipResult(None)


def _minkowski_row(u: PicClass) -> list[tuple[int, int]]:
    """The nonzero entries (k, r_k) of the standard-dot row r with
    r.x = pairing(u, x)."""
    return [(k, x if k == 0 else -x) for k, x in enumerate(u.coords) if x]


def _dots(row: list[tuple[int, int]], vs: list[tuple[int, ...]]) -> list[int]:
    """[r . v for v in vs], the row r given by its nonzero entries (k, r_k).

    The one place a normal meets vectors: the Gram rows, the double
    description and the Farkas tests all pair through it.  Nearly every
    normal is sparse, so a product costs a few multiplications, not
    n + 1; e_i - e_{i+1}, the commonest, skips the inner loop.
    """
    if len(row) == 2:
        (k, r), (l, s) = row
        return [r * v[k] + s * v[l] for v in vs]
    return [sum([r * v[k] for k, r in row]) for v in vs]


def _gram_upper(normals: tuple[PicClass, ...]) -> list[list[int]]:
    """The upper triangle of the Gram matrix: row i holds pairing(u_i, u_j)
    for j = i, i+1, ..., each row paired by _dots over u_i's nonzero entries."""
    coords = [u.coords for u in normals]
    return [_dots(_minkowski_row(u), coords[i:]) for i, u in enumerate(normals)]


def _symmetric(upper: list[list]) -> tuple[tuple, ...]:
    """The full symmetric matrix from its upper triangle (row i from column i)."""
    return tuple([
        tuple([upper[j][i - j] for j in range(i)] + row) for i, row in enumerate(upper)
    ])


def gram_matrix(P: ConePolytope) -> tuple[tuple[int, ...], ...]:
    """G_ij = pairing(u_i, u_j) over the unnormalized normals."""
    check_class("P", P, ConePolytope)
    return _symmetric(_gram_upper(P.all_normals))


# ---------------------------------------------------------------------------
# exact angle classification
#
# With integer normals, cos^2(theta) = (u.v)^2 / (u^2 v^2) is rational.
# By Niven's theorem the only rational values of cos^2 at rational
# multiples of pi are 0, 1/4, 1/2, 3/4, 1 — so pi/2, pi/3, pi/4, pi/6
# are the only proper submultiples a lattice polytope can realize, and
# the classification below is complete.
#
# The class of a pair depends only on the integers (u.v, u^2, v^2), and
# a polytope's normals realize very few of these triples: 9 among the
# 253 pairs i <= j of P_minus(20).  So cartan_matrix, is_coxeter and
# coxeter_diagram share one pass, _angle_pass, which takes the Gram
# products from _gram_upper (the kernel gram_matrix uses) and classifies
# each distinct triple once per pass into one Fraction; kind and m read
# its numerator and denominator, never hash it.  is_coxeter is the one
# rule for non-Coxeter pairs, and coxeter_diagram refuses them before it
# builds an edge.  The pass is kept on the polytope object itself, in its
# private slot, so the three functions called on one object share
# one pass for the object's life, and any other object, equal or not,
# gets a pass of its own.  Its callers share the stored lists and only
# read them.

PI_OVER = "pi_over"
ZERO_ANGLE = "zero_angle"
DIVERGENT = "divergent"
NON_SUBMULTIPLE = "non_submultiple"

_COS2_TO_M = {(1, 4): 3, (1, 2): 4, (3, 4): 6}  # cos^2(pi/m) as (numerator, denominator) -> m


class AngleClass(Record):
    """Exact classification of the angle between two halfspaces.

    sign is the sign of u.v and cos2 the rational (u.v)^2/(u^2 v^2), so
    the record is the exact Cartan entry -2*sign*sqrt(cos2).  Derived:
    kind, one of PI_OVER (angle pi/m, m >= 2), ZERO_ANGLE (parallel at
    the boundary), DIVERGENT or NON_SUBMULTIPLE, and m, None off PI_OVER.
    """

    __slots__ = ("sign", "cos2")

    # its own __init__, not Record's (0.6 us slower a call): cone_audit builds 95 per 30-op cycle
    def __init__(self, sign: int, cos2: Fraction) -> None:
        set_field(self, "sign", sign)
        set_field(self, "cos2", cos2)

    @property
    def m(self) -> int | None:
        if self.sign == 0:
            return 2
        cos2 = self.cos2
        return _COS2_TO_M.get((cos2.numerator, cos2.denominator)) if self.sign > 0 else None

    @property
    def kind(self) -> str:
        a, b = self.cos2.numerator, self.cos2.denominator  # b > 0
        if a > b:
            return DIVERGENT
        if self.m is not None:
            return PI_OVER
        return ZERO_ANGLE if a == b and self.sign > 0 else NON_SUBMULTIPLE


CartanEntry = AngleClass  # alias: the exact Cartan entry -2*sign*sqrt(cos2)


def classify_angle(u: Halfspace | PicClass, v: Halfspace | PicClass) -> AngleClass:
    """Classify the angle between two hyperplanes with negative-square normals."""
    a = u.normal if isinstance(u, Halfspace) else u
    b = v.normal if isinstance(v, Halfspace) else v
    a2, b2 = pairing(a, a), pairing(b, b)
    # a bad square is reported before a rank mismatch of a and b
    return _classify(pairing(a, b) if a2 < 0 and b2 < 0 else 0, a2, b2)


def _classify(p: int, a2: int, b2: int) -> AngleClass:
    """The class of the angle between normals with u.v = p, u^2 = a2, v^2 = b2."""
    if a2 >= 0 or b2 >= 0:
        raise ValueError("angle classification needs normals of negative square")
    return AngleClass((p > 0) - (p < 0), Fraction(p * p, a2 * b2))


def _angle_pass(P: ConePolytope) -> list[list[AngleClass]]:
    """Upper triangle of the angle classes of the pairs of P's normals,
    laid out as _gram_upper's.  Pairs with the same integer triple
    (u.v, u^2, v^2) share one instance.

    The first call on a polytope object stores the pass in its private
    slot, and every later call on that object returns the same lists:
    callers must not mutate what it returns."""
    check_class("P", P, ConePolytope)
    upper = getattr(P, "_private", None)  # unset until the first pass
    if upper is not None:
        return upper
    upper = _gram_upper(P.all_normals)
    squares = [row[0] for row in upper]
    memo = {}
    out = []
    for i, row in enumerate(upper):
        a2, line = squares[i], []
        for p, b2 in zip(row, squares[i:]):
            key = (p, a2, b2)
            value = memo.get(key)
            if value is None:
                value = memo[key] = _classify(p, a2, b2)
            line.append(value)
        out.append(line)
    set_field(P, "_private", out)
    return out


def cartan_matrix(P: ConePolytope) -> tuple[tuple[CartanEntry, ...], ...]:
    """The matrix a_ij = -v_i.v_j of the normalized normals, held exactly.

    Normalization is never materialized: each entry is stored as the
    pair (sign of pairing, cos^2), from which the value -2*sign*sqrt(cos2)
    is recovered symbolically.  Diagonal entries are always 2.
    """
    return _symmetric(_angle_pass(P))


def render_cartan_entry(entry: CartanEntry) -> str:
    """Exact text form of -2*sign*sqrt(cos2): "2", "0", "-1", "-sqrt(2)", "-2/sqrt(3)", ..."""
    check_class("entry", entry, AngleClass)
    if entry.sign == 0:
        return "0"
    square = 4 * entry.cos2  # value^2, a reduced nonnegative rational
    a, b = square.numerator, square.denominator
    ra, rb = isqrt(a), isqrt(b)
    if ra * ra == a and rb * rb == b:
        mag = f"{ra}" if rb == 1 else f"{ra}/{rb}"
    elif rb * rb == b:
        mag = f"sqrt({a})" if rb == 1 else f"sqrt({a})/{rb}"
    elif ra * ra == a:
        mag = f"{ra}/sqrt({b})"
    else:
        mag = f"sqrt({a}/{b})"
    return f"-{mag}" if entry.sign > 0 else mag


class CoxeterCheck(Record):
    """The pairs (i, j, angle class) whose angle is not a submultiple of
    pi, zero or divergent; ``is_coxeter`` is derived: whether there are
    none."""

    __slots__ = ("offending",)

    @property
    def is_coxeter(self) -> bool:
        return not self.offending

    def __bool__(self) -> bool:
        return self.is_coxeter


def is_coxeter(P: ConePolytope) -> CoxeterCheck:
    """All pairwise angles submultiples of pi, zero, or divergent?"""
    return CoxeterCheck(tuple([
        (i, j, ang)
        for i, row in enumerate(_angle_pass(P))
        for j, ang in enumerate(row[1:], i + 1)
        if ang.sign and ang.kind == NON_SUBMULTIPLE
    ]))


# ---------------------------------------------------------------------------
# Coxeter diagrams

EDGE_PLAIN = "plain"
EDGE_DASHED = "dashed"
EDGE_DOTTED = "dotted"
_EDGE_STYLE = {PI_OVER: EDGE_PLAIN, ZERO_ANGLE: EDGE_DASHED, DIVERGENT: EDGE_DOTTED}


class DiagramEdge(Record):
    """An edge between nodes i and j: ``style`` is plain, dashed or dotted,
    and ``m`` the angle denominator, None for dashed and dotted edges;
    ``multiplicity``, the strands to draw, is derived (m-2 if plain, else 1)."""

    __slots__ = ("i", "j", "style", "m")

    # its own __init__, not Record's (0.6 us slower a call): cone_audit builds 37 per 30-op cycle
    def __init__(self, i: int, j: int, style: str, m: int | None) -> None:
        set_field(self, "i", i)
        set_field(self, "j", j)
        set_field(self, "style", style)
        set_field(self, "m", m)

    @property
    def multiplicity(self) -> int:
        return self.m - 2 if self.style == EDGE_PLAIN else 1


class CoxeterDiagram(Record):
    """Node labels, one per halfspace, and the edges between them."""

    __slots__ = ("labels", "edges")

    def to_dot(self) -> str:
        lines = ["graph coxeter {", "  node [shape=circle];"]
        for lab in self.labels:
            lines.append(f"  {lab};")
        for e in self.edges:
            a, b = self.labels[e.i], self.labels[e.j]
            if e.style == EDGE_PLAIN:
                lines.extend(f"  {a} -- {b};" for _ in range(e.multiplicity))
            else:
                lines.append(f"  {a} -- {b} [style={e.style}];")
        lines.append("}")
        return "\n".join(lines)

    def to_ascii(self) -> str:
        marker = {EDGE_DASHED: "~~", EDGE_DOTTED: ".."}
        lines = [f"nodes: {' '.join(self.labels)}"]
        for e in self.edges:
            a, b = self.labels[e.i], self.labels[e.j]
            if e.style == EDGE_PLAIN:
                lines.append(f"{a} {'=' * e.multiplicity if e.multiplicity > 1 else '--'} {b}  (pi/{e.m})")
            elif e.style == EDGE_DASHED:
                lines.append(f"{a} {marker[e.style]} {b}  (parallel)")
            else:
                lines.append(f"{a} {marker[e.style]} {b}  (divergent)")
        if len(lines) == 1:
            lines.append("(no edges)")
        return "\n".join(lines)


def coxeter_diagram(P: ConePolytope) -> CoxeterDiagram:
    """Nodes per halfspace, m-2 strands for angle pi/m, dashed for zero angle,
    dotted for divergent.  Undefined (error) if P is not a Coxeter polytope."""
    bad = is_coxeter(P).offending
    if bad:
        pairs = ", ".join(f"({i},{j}) cos2={ang.cos2}" for i, j, ang in bad)
        raise ValueError(f"diagram undefined: non-submultiple angles at {pairs}")
    upper = _angle_pass(P)  # is_coxeter's pass, kept on P
    edges = tuple([
        DiagramEdge(i, j, _EDGE_STYLE[ang.kind], ang.m)
        for i, row in enumerate(upper)
        for j, ang in enumerate(row[1:], i + 1)
        if ang.sign  # a right angle: no edge
    ])
    return CoxeterDiagram(tuple([f"v{i}" for i in range(len(upper))]), edges)


# ---------------------------------------------------------------------------
# extremal rays


class Ray(Record):
    """An extremal ray: primitive generator and the indices (into all_normals)
    of the inequalities vanishing on it; its light-cone ``position`` is derived."""

    __slots__ = ("generator", "active_set")

    # its own __init__, not Record's (0.6 us slower a call): cone_audit builds 56 per 30-op cycle
    def __init__(self, generator: PicClass, active_set: tuple[int, ...]) -> None:
        set_field(self, "generator", generator)
        set_field(self, "active_set", active_set)

    @property
    def position(self) -> LightConePosition:
        return light_cone_position(self.generator)


def _primitive(v: list[int]) -> tuple[int, ...]:
    g = gcd(*v)
    return tuple([x // g for x in v])


def _generators(
    rows: list[list[tuple[int, int]]], dim: int
) -> tuple[list[tuple[int, ...]], list[int], list[tuple[int, ...]]]:
    """(rays, zeros, lineality) of the cone {x in Q^dim : r.x >= 0 for every row r},
    each row given by its nonzero entries as _minkowski_row gives them.

    Integer double description (Motzkin et al. 1953; Fukuda & Prodon
    1996).  Starting from the whole space (no rays, lineality = the
    unit vectors), the rows are added one at a time:

    - if the row is nonzero on some lineality vector p, that vector is
      pivoted off: every other lineality vector and every ray is
      combined with p to vanish on the row, and p itself, oriented to be
      positive on it, becomes a new ray;
    - otherwise rays are split by the sign of the row, the negative ones
      are dropped, and each adjacent positive/negative pair contributes
      the combination of the two on which the row vanishes.

    Each row is paired with the rays and lineality vectors over its
    nonzero entries only (_dots), once per row: the pivot step reuses
    the lineality pairings that found the pivot.  zeros[i] is the zero
    set of rays[i], an int with bit k set iff row k vanishes on it; it
    stays exact, as a positive combination of two rays vanishes exactly
    where both do.  Two rays are adjacent iff no third ray vanishes on
    every row that both vanish on, i.e. iff exactly two zero sets (their
    own) contain their common one, counted in one pass over zeros.
    Adjacency needs at least dim - len(lineality) - 2 common zeros,
    which rejects most pairs before that count.  Every combination is
    reduced to its primitive integer vector, so all arithmetic stays in
    small ints.

    The cone is lineality + the nonnegative span of the rays; the rays
    are its extremal rays when the lineality is empty.
    """
    lineality = [(0,) * j + (1,) + (0,) * (dim - 1 - j) for j in range(dim)]
    rays: list[tuple[int, ...]] = []
    zeros: list[int] = []  # bit k set: row k vanishes on the ray
    for k, row in enumerate(rows):
        bit = 1 << k
        values = _dots(row, lineality)
        pivot = next((i for i, a in enumerate(values) if a), None)
        if pivot is not None:
            p, a = lineality.pop(pivot), values.pop(pivot)
            if a < 0:
                p, a = tuple([-x for x in p]), -a
            # b = row.v; a*v - b*p vanishes on the row and equals a*v modulo p
            lineality = [
                v if b == 0 else _primitive([a * x - b * y for x, y in zip(v, p)])
                for v, b in zip(lineality, values)
            ]
            rays = [
                v if b == 0 else _primitive([a * x - b * y for x, y in zip(v, p)])
                for v, b in zip(rays, _dots(row, rays))
            ]
            zeros = [z | bit for z in zeros]
            rays.append(p)
            zeros.append(bit - 1)
            continue
        values = _dots(row, rays)
        need = dim - len(lineality) - 2
        kept = [i for i, b in enumerate(values) if b >= 0]
        new_rays = [rays[i] for i in kept]
        new_zeros = [zeros[i] | (bit if values[i] == 0 else 0) for i in kept]
        negative = [i for i, b in enumerate(values) if b < 0]
        for i in (i for i, b in enumerate(values) if b > 0):
            for j in negative:
                common = zeros[i] & zeros[j]
                if common.bit_count() < need:
                    continue
                if list(map(common.__and__, zeros)).count(common) != 2:
                    continue
                a, b = values[i], -values[j]
                new_rays.append(
                    _primitive([a * x + b * y for x, y in zip(rays[j], rays[i])])
                )
                new_zeros.append(common | bit)
        rays, zeros = new_rays, new_zeros
    return rays, zeros, lineality


def extremal_rays(P: ConePolytope) -> list[Ray]:
    """All extremal rays of the cone, sorted by generator coordinates.

    Computed by integer double description over the Minkowski rows of
    P's normals, with each ray's active set.  Requires a pointed cone.
    """
    check_class("P", P, ConePolytope)
    rows = [_minkowski_row(u) for u in P.all_normals]
    rays, zeros, lineality = _generators(rows, P.n + 1)
    if lineality:
        raise ValueError(
            "cone is not pointed: it contains a line, so extremal rays "
            "do not determine it"
        )
    return [
        # _primitive gave each generator as a tuple of P.n + 1 ints
        Ray(PicClass._trusted(P.n, coords), tuple([k for k in range(len(rows)) if z >> k & 1]))
        for coords, z in sorted(zip(rays, zeros))
    ]


def boundary_rays(P: ConePolytope) -> list[Ray]:
    """Extremal rays on the light cone (square zero): ideal vertices."""
    return _boundary(extremal_rays(P))


def finite_volume(P: ConePolytope) -> bool:
    """True iff the cone sits inside the closed forward light cone:
    every extremal ray has square >= 0 and positive degree."""
    return _finite(extremal_rays(P))


def _boundary(rays: list[Ray]) -> list[Ray]:
    return [r for r in rays if r.position.tag == LightConePosition.BOUNDARY]


def _finite(rays: list[Ray]) -> bool:
    positions = (r.position for r in rays)
    return all(p.tag != LightConePosition.OUTSIDE and p.forward for p in positions)


# ---------------------------------------------------------------------------
# minimality audit


def _in_span(rows: list[list[tuple[int, int]]], target: list[tuple[int, int]]) -> bool:
    """Is target a rational combination of rows?  Each is given by its
    nonzero entries, as _minkowski_row gives them.

    Fraction-free elimination over sparse rows: each row, reduced by the
    basis rows before it, joins the basis unless it vanishes, with its
    least nonzero column as pivot, so that every basis row is zero at
    the pivots before its own.  A row is then reduced by the basis rows
    in order, each step clearing one pivot.  Every step divides the
    reduced row by its gcd, as _primitive does, so the integers stay
    near the size of the entries rather than doubling at each step.
    """
    basis: list[tuple[int, dict[int, int]]] = []  # (pivot column, row)

    def reduce(row: dict[int, int]) -> dict[int, int]:
        for c, p in basis:
            b = row.get(c)
            if b:
                a = p[c]
                g = gcd(a, b)
                a, b = a // g, b // g
                row = {k: a * row.get(k, 0) - b * p.get(k, 0) for k in row.keys() | p.keys()}
                row = {k: x for k, x in row.items() if x}
                if not row:
                    return row
                g = gcd(*row.values())
                if g != 1:
                    row = {k: x // g for k, x in row.items()}
        return row

    for r in rows:
        row = reduce(dict(r))
        if row:
            basis.append((min(row), row))
    return not reduce(dict(target))


def is_implied(P: ConePolytope, normal: PicClass) -> bool:
    """Does the inequality pairing(normal, x) >= 0 follow from P's?

    True exactly when normal is a nonnegative combination of P's normals
    (Farkas), which is read off the double description of P: normal
    vanishes on its lineality space, that is, lies in the span of P's
    normals, and pairs >= 0 with every ray.

    With at most n normals, fewer than the n + 1 coordinates, the
    lineality space is never zero, and the span is decided first, by
    _in_span: outside it the answer is False with no double description
    at all.  With n + 1 normals or more, elimination would fill in (the
    dense -K row of build_P_minus) and the rows often span everything,
    so the span is read off the double description's lineality instead.

    Accepts any integer normal, including square >= 0 ones that could
    not join the halfspace list themselves.
    """
    check_class("P", P, ConePolytope)
    check_class("normal", normal)
    if normal.n != P.n:
        raise ValueError(f"rank mismatch: cone has n = {P.n}, normal has n = {normal.n}")
    row = _minkowski_row(normal)
    rows = [_minkowski_row(u) for u in P.all_normals]
    if len(rows) <= P.n:
        if not _in_span(rows, row):
            return False
        rays = _generators(rows, P.n + 1)[0]
    else:
        rays, _, lineality = _generators(rows, P.n + 1)
        if any(_dots(row, lineality)):
            return False
    return all(b >= 0 for b in _dots(row, rays))


def redundant_constraints(P: ConePolytope) -> tuple[int, ...]:
    """Indices (into all_normals) of inequalities implied by the others:
    each one is tested by is_implied against the cone of the rest."""
    check_class("P", P, ConePolytope)
    hs = P.halfspaces
    return tuple(
        i
        for i, h in enumerate(hs)
        if is_implied(ConePolytope._trusted(P.n, hs[:i] + hs[i + 1 :]), h.normal)
    )


# ---------------------------------------------------------------------------
# vertex formula verification for the -K truncation


def _vec(n: int, head: int, tail: list[int]) -> PicClass:
    return PicClass(n=n, coords=_primitive([head, *tail, *([0] * (n - len(tail)))]))


def vertex_formula_families(n: int) -> dict[str, list[PicClass]]:
    """The eight closed-form vertex families, primitivized.

    Families (before clearing common factors):
      (1:0...), (1:-1:0...), (2:-1:-1:0...),
      (3:(-1)^k:0...) k=3..9,
      (m:(-3)^m:0...) m=10..n,
      (b-2:-(b-6):(-2)^b:0...) b=9..n-1,
      (2b-2:-(b-3):-(b-3):(-4)^b:0...) b=8..n-2,
      (3b:(-b)^a:(-(9-a))^b:0...) a=3..8, 10<=a+b<=n.
    """
    check_bound("n", n, 10)
    fams: dict[str, list[PicClass]] = {
        "unit": [_vec(n, 1, [])],
        "line": [_vec(n, 1, [-1])],
        "conic": [_vec(n, 2, [-1, -1])],
        "cubic": [_vec(n, 3, [-1] * k) for k in range(3, 10)],
        "triple": [_vec(n, m, [-3] * m) for m in range(10, n + 1)],
        "double_tail": [
            _vec(n, b - 2, [-(b - 6)] + [-2] * b) for b in range(9, n)
        ],
        "quadruple_tail": [
            _vec(n, 2 * b - 2, [-(b - 3), -(b - 3)] + [-4] * b)
            for b in range(8, n - 1)
        ],
        "two_block": [
            _vec(n, 3 * b, [-b] * a + [-(9 - a)] * b)
            for a in range(3, 9)
            for b in range(10 - a, n - a + 1)
        ],
    }
    return fams


class VertexFormulaReport(Record):
    """The closed-form vertex families against the computed extremal rays,
    each sorted by coordinates; every verdict is derived from them."""

    __slots__ = ("n", "formula_rays", "computed_rays")

    @property
    def expected_count(self) -> int:
        return 9 * self.n - 71

    @property
    def count_ok(self) -> bool:
        return len(self.formula_rays) == self.expected_count == len(self.computed_rays)

    @property
    def sets_equal(self) -> bool:
        return set(self.formula_rays) == set(self.computed_rays)

    def ok(self) -> bool:
        return self.count_ok and self.sets_equal


def verify_vertex_formulas(n: int) -> VertexFormulaReport:
    """Check the closed-form families against the computed extremal rays.

    The families should produce exactly the 9n-71 extremal rays of the
    -K-truncated cone, for 10 <= n <= 100 (about 0.07 s at n = 100 on a
    2-vCPU Linux machine with Python 3.11.7).
    """
    check_bound("n", n, 10, 100)
    return _vertex_formula_report(n, extremal_rays(build_P_minus(n)))


def _vertex_formula_report(n: int, rays: list[Ray]) -> VertexFormulaReport:
    """The report on the extremal rays of build_P_minus(n), computed by the caller."""
    formula = {v for vs in vertex_formula_families(n).values() for v in vs}
    return VertexFormulaReport(
        n,
        tuple(sorted(formula, key=lambda v: v.coords)),
        tuple(r.generator for r in rays),
    )


# ---------------------------------------------------------------------------
# the region R of the finite-volume proof
#
# R lives in rational 3-space with coordinates (x_1, x_2, x_n) — an
# affine chart, handled with the standard inner product, independent of
# the Minkowski machinery.  Its five facets pin down the vertices of
# the -K-truncated cone with a tail of equal middle coordinates.


class RegionRRow(Record):
    """One triple of facet planes: where they meet, whether that point is
    a vertex of R, and f there."""

    __slots__ = ("triple", "point", "is_vertex", "f_value")


class RegionRReport(Record):
    """The ten triple intersections of region R; the f <= 1 summary is
    derived from the rows."""

    __slots__ = ("n", "rows")

    @property
    def _vertices(self) -> list[RegionRRow]:
        return [r for r in self.rows if r.is_vertex]

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def max_f_at_vertices(self) -> Fraction | None:
        """The largest f at a vertex, None if no row is one."""
        return max((r.f_value for r in self._vertices), default=None)

    @property
    def f_le_1_at_vertices(self) -> bool:
        return all(r.f_value <= 1 for r in self._vertices)

    @property
    def f_lt_1_when_xn_negative(self) -> bool:
        return all(r.f_value < 1 for r in self._vertices if r.point[2] < 0)

    def ok(self) -> bool:
        """The f <= 1 claim holds, and at a vertex at least: a report
        with no vertex row proves nothing."""
        return (
            self.vertex_count > 0
            and self.f_le_1_at_vertices
            and self.f_lt_1_when_xn_negative
        )


def _region_constraints(n: int) -> list[tuple[tuple[int, int, int], int]]:
    # coeffs . (x_1, x_2, x_n) >= rhs
    return [
        ((1, 2, 0), -1),
        ((-1, 1, 0), 0),
        ((0, -1, 1), 0),
        ((0, 0, -1), 0),
        ((1, n - 2, 1), -3),
    ]


def verify_region_R(n: int) -> RegionRReport:
    """Enumerate the triple intersections of region R's five facet planes.

    For each of the 10 triples: solve exactly, decide whether the point
    satisfies all five inequalities (a vertex of R), and evaluate
    f = x_1^2 + (n-2)x_2^2 + x_n^2.  The report checks f <= 1 at every
    vertex with equality possible only when x_n = 0.
    """
    check_bound("n", n, 10)
    cons = _region_constraints(n)
    rows = []
    for triple in itertools.combinations(range(5), 3):
        mat = [list(cons[i][0]) for i in triple]
        rhs = [cons[i][1] for i in triple]
        # never None: the ten determinants are 3, -3, 3, 1, 3 - n, n - 4,
        # -1, n, 1 - n and 1, none of them 0 for n >= 10
        point = solve_unique(mat, rhs)
        feasible = all(
            sum(c * x for c, x in zip(coeffs, point)) >= r for coeffs, r in cons
        )
        f = point[0] ** 2 + (n - 2) * point[1] ** 2 + point[2] ** 2
        rows.append(RegionRRow(triple, point, feasible, f))
    return RegionRReport(n, tuple(rows))
