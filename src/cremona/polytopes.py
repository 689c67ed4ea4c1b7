"""Polyhedral cones over hyperbolic polytopes.

A polytope in hyperbolic n-space is described here by the cone over it
in the lattice: a finite list of integer normal vectors u with u^2 < 0,
each contributing the inequality pairing(u, x) >= 0.  This module
builds the named cones (the sorted cone, its truncation at x_n <= 0,
and the further truncation by -K), classifies dihedral angles exactly,
assembles Gram and Cartan matrices, draws Coxeter diagrams, and
computes extremal rays and Farkas (implied-inequality) tests from one
integer double-description routine.

Everything is exact: angles are decided through the rational invariant
cos^2 = (u.v)^2 / (u^2 v^2), never through floating point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt

from .lattice import (
    LightConePosition,
    PicClass,
    Record,
    anticanonical_class,
    basis_vector,
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

__all__ = [
    "Halfspace",
    "ConePolytope",
    "MembershipResult",
    "AngleClass",
    "CartanEntry",
    "Ray",
    "CoxeterCheck",
    "DiagramEdge",
    "CoxeterDiagram",
    "VertexFormulaReport",
    "RegionRRow",
    "RegionRReport",
    "build_P_tilde",
    "build_P",
    "build_P_minus",
    "membership",
    "gram_matrix",
    "classify_angle",
    "cartan_matrix",
    "render_cartan_entry",
    "is_coxeter",
    "coxeter_diagram",
    "extremal_rays",
    "boundary_rays",
    "finite_volume",
    "is_implied",
    "redundant_constraints",
    "vertex_formula_families",
    "verify_vertex_formulas",
    "verify_region_R",
]


class Halfspace(Record):
    """The halfspace {x : pairing(normal, x) >= 0}.

    The normal is an unnormalized integer vector with normal^2 < 0, so
    that the bounding hyperplane actually meets hyperbolic space.
    """

    __slots__ = ("normal",)

    def __init__(self, normal: PicClass) -> None:
        square = pairing(normal, normal)
        if square >= 0:
            raise ValueError(
                f"halfspace normal must have negative self-pairing, "
                f"got {square} for {normal.coords}"
            )
        set_field(self, "normal", normal)


class ConePolytope(Record):
    """A cone cut out by halfspaces.

    The halfspace list is *meant* to be minimal (no inequality implied
    by the rest); this is not enforced on construction.  Use
    redundant_constraints() to audit it.
    """

    __slots__ = ("n", "halfspaces")

    def __init__(self, n: int, halfspaces: tuple[Halfspace, ...]) -> None:
        for h in halfspaces:
            if h.normal.n != n:
                raise ValueError(f"normal {h.normal.coords} does not live in rank {n + 1}")
        set_field(self, "n", n)
        set_field(self, "halfspaces", halfspaces)

    @property
    def all_normals(self) -> tuple[PicClass, ...]:
        return tuple([h.normal for h in self.halfspaces])


class MembershipResult(Record):
    """Whether a class lies in a cone, and else the first normal it violates."""

    __slots__ = ("contains", "violated")

    def __init__(self, contains: bool, violated: PicClass | None) -> None:
        set_field(self, "contains", contains)
        set_field(self, "violated", violated)

    def __bool__(self) -> bool:
        return self.contains


# ---------------------------------------------------------------------------
# named constructions


def build_P_tilde(n: int) -> ConePolytope:
    """The sorted cone: x_0 >= -x_1-x_2-x_3 and x_1 <= x_2 <= ... <= x_n.

    Normals are v_0 = e_0-e_1-e_2-e_3 and v_i = e_i-e_{i+1} for
    i = 1..n-1.  The cone is not pointed (it contains the line R.K).
    """
    if n < 3:
        raise ValueError(f"need n >= 3 for the sorted cone, got {n}")
    normals = [PicClass._trusted(n, (1, -1, -1, -1) + (0,) * (n - 3))]
    normals += [
        PicClass._trusted(n, (0,) * i + (1, -1) + (0,) * (n - 1 - i)) for i in range(1, n)
    ]
    return ConePolytope(n=n, halfspaces=tuple([Halfspace(u) for u in normals]))


def build_P(n: int) -> ConePolytope:
    """The sorted cone truncated at x_n <= 0 (normal e_n appended)."""
    base = build_P_tilde(n)
    extra = Halfspace(basis_vector(n, n))
    return ConePolytope(n=n, halfspaces=base.halfspaces + (extra,))


def build_P_minus(n: int) -> ConePolytope:
    """build_P(n) truncated by 3x_0 >= -sum x_i (normal -K appended).

    Only defined for n >= 10: at n = 9 the would-be normal -K has
    square 0 and the inequality is already implied by the others.
    """
    if n <= 9:
        raise ValueError(
            f"the -K truncation needs n >= 10 (at n = {n} the normal has "
            "square >= 0 and the inequality is implied by the others)"
        )
    base = build_P(n)
    extra = Halfspace(anticanonical_class(n))
    return ConePolytope(n=n, halfspaces=base.halfspaces + (extra,))


# ---------------------------------------------------------------------------
# membership and Gram data


def membership(P: ConePolytope, v: PicClass) -> MembershipResult:
    """Does v satisfy every inequality of P?  Reports the first violated normal."""
    if v.n != P.n:
        raise ValueError(f"rank mismatch: cone has n = {P.n}, vector has n = {v.n}")
    for u in P.all_normals:
        if pairing(u, v) < 0:
            return MembershipResult(contains=False, violated=u)
    return MembershipResult(contains=True, violated=None)


def _gram_upper(normals: tuple[PicClass, ...]) -> list[list[int]]:
    """The upper triangle of the Gram matrix: row i holds pairing(u_i, u_j)
    for j = i, i+1, ...

    Each product runs over the nonzero entries of u_i only (its sparse
    Minkowski row), so it costs 2 multiplications for a normal
    e_i - e_{i+1} and n + 1 only for a dense one such as -K.
    """
    coords = [u.coords for u in normals]
    out = []
    for i, c in enumerate(coords):
        row = [(k, x if k == 0 else -x) for k, x in enumerate(c) if x]
        if len(row) == 2:  # the common case, without the inner loop
            (k, r), (l, s) = row
            out.append([r * d[k] + s * d[l] for d in coords[i:]])
        else:
            out.append([sum([r * d[k] for k, r in row]) for d in coords[i:]])
    return out


def _symmetric(upper: list[list]) -> tuple[tuple, ...]:
    """The full symmetric matrix from its upper triangle (row i from column i)."""
    m = len(upper)
    full = [[None] * m for _ in range(m)]
    for i, row in enumerate(upper):
        for j, x in enumerate(row, i):
            full[i][j] = full[j][i] = x
    return tuple([tuple(row) for row in full])


def gram_matrix(P: ConePolytope) -> tuple[tuple[int, ...], ...]:
    """G_ij = pairing(u_i, u_j) over the unnormalized normals."""
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
# each distinct triple once per call, building one Fraction for it.
# Nothing is cached across calls.

PI_OVER = "pi_over"
ZERO_ANGLE = "zero_angle"
DIVERGENT = "divergent"
NON_SUBMULTIPLE = "non_submultiple"

_COS2_TO_M = {Fraction(1, 4): 3, Fraction(1, 2): 4, Fraction(3, 4): 6}


class AngleClass(Record):
    """Exact classification of the angle between two halfspaces.

    kind is one of PI_OVER (with m >= 2), ZERO_ANGLE (parallel at the
    boundary, m = infinity), DIVERGENT, or NON_SUBMULTIPLE.  cos2 is
    the rational (u.v)^2/(u^2 v^2) and sign the sign of u.v; together
    they determine the exact Cartan entry -2*sign*sqrt(cos2).
    """

    __slots__ = ("kind", "cos2", "sign", "m")

    def __init__(self, kind: str, cos2: Fraction, sign: int, m: int | None = None) -> None:
        set_field(self, "kind", kind)
        set_field(self, "cos2", cos2)
        set_field(self, "sign", sign)
        set_field(self, "m", m)


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
    sign = (p > 0) - (p < 0)
    cos2 = Fraction(p * p, a2 * b2)
    if cos2 > 1:
        return AngleClass(DIVERGENT, cos2, sign)
    if p == 0:
        return AngleClass(PI_OVER, cos2, sign, m=2)
    if cos2 == 1:
        if p > 0:
            return AngleClass(ZERO_ANGLE, cos2, sign)
        return AngleClass(NON_SUBMULTIPLE, cos2, sign)
    if p > 0 and cos2 in _COS2_TO_M:
        return AngleClass(PI_OVER, cos2, sign, m=_COS2_TO_M[cos2])
    return AngleClass(NON_SUBMULTIPLE, cos2, sign)


def _angle_pass(P: ConePolytope, make) -> list[list]:
    """Upper triangle of make(angle class) over the pairs of P's normals,
    laid out as _gram_upper's.  Pairs with the same integer triple
    (u.v, u^2, v^2) share one classification and one make() result."""
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
                value = memo[key] = make(_classify(p, a2, b2))
            line.append(value)
        out.append(line)
    return out


class CartanEntry(Record):
    """Exact Cartan matrix entry a_ij = -2*sign*sqrt(cos2)."""

    __slots__ = ("sign", "cos2")

    def __init__(self, sign: int, cos2: Fraction) -> None:
        set_field(self, "sign", sign)
        set_field(self, "cos2", cos2)


def cartan_matrix(P: ConePolytope) -> tuple[tuple[CartanEntry, ...], ...]:
    """The matrix a_ij = -v_i.v_j of the normalized normals, held exactly.

    Normalization is never materialized: each entry is stored as the
    pair (sign of pairing, cos^2), from which the value -2*sign*sqrt(cos2)
    is recovered symbolically.  Diagonal entries are always 2.
    """
    return _symmetric(_angle_pass(P, lambda ang: CartanEntry(ang.sign, ang.cos2)))


def render_cartan_entry(entry: CartanEntry) -> str:
    """Exact text form of -2*sign*sqrt(cos2): "2", "0", "-1", "-sqrt(2)", "-2/sqrt(3)", ..."""
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
    """Whether every angle is a submultiple of pi, zero or divergent, and
    the pairs (i, j, angle class) where one is not."""

    __slots__ = ("is_coxeter", "offending")

    def __init__(
        self, is_coxeter: bool, offending: tuple[tuple[int, int, AngleClass], ...]
    ) -> None:
        set_field(self, "is_coxeter", is_coxeter)
        set_field(self, "offending", offending)

    def __bool__(self) -> bool:
        return self.is_coxeter


def is_coxeter(P: ConePolytope) -> CoxeterCheck:
    """All pairwise angles submultiples of pi, zero, or divergent?"""
    _, bad = _coxeter_pass(P)
    return CoxeterCheck(is_coxeter=not bad, offending=bad)


# ---------------------------------------------------------------------------
# Coxeter diagrams

EDGE_PLAIN = "plain"
EDGE_DASHED = "dashed"
EDGE_DOTTED = "dotted"


class DiagramEdge(Record):
    """An edge between nodes i and j: ``style`` is plain, dashed or dotted,
    ``multiplicity`` the parallel strands to draw (m-2 for angle pi/m),
    and ``m`` the angle denominator, None for dashed and dotted edges."""

    __slots__ = ("i", "j", "style", "multiplicity", "m")

    def __init__(self, i: int, j: int, style: str, multiplicity: int, m: int | None) -> None:
        set_field(self, "i", i)
        set_field(self, "j", j)
        set_field(self, "style", style)
        set_field(self, "multiplicity", multiplicity)
        set_field(self, "m", m)


class CoxeterDiagram(Record):
    """Node labels, one per halfspace, and the edges between them."""

    __slots__ = ("labels", "edges")

    def __init__(self, labels: tuple[str, ...], edges: tuple[DiagramEdge, ...]) -> None:
        set_field(self, "labels", labels)
        set_field(self, "edges", edges)

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


def _coxeter_pass(
    P: ConePolytope,
) -> tuple[CoxeterDiagram | None, tuple[tuple[int, int, AngleClass], ...]]:
    """One _angle_pass over the pairs of normals: the Coxeter diagram (None
    if some angle is not a submultiple of pi) and the offending pairs."""
    upper = _angle_pass(P, lambda ang: ang)
    edges = []
    bad = []
    for i, row in enumerate(upper):
        for j, ang in enumerate(row[1:], i + 1):
            if ang.kind == PI_OVER:
                if ang.m > 2:
                    edges.append(DiagramEdge(i, j, EDGE_PLAIN, ang.m - 2, ang.m))
            elif ang.kind == ZERO_ANGLE:
                edges.append(DiagramEdge(i, j, EDGE_DASHED, 1, None))
            elif ang.kind == DIVERGENT:
                edges.append(DiagramEdge(i, j, EDGE_DOTTED, 1, None))
            else:
                bad.append((i, j, ang))
    if bad:
        return None, tuple(bad)
    labels = tuple([f"v{i}" for i in range(len(upper))])
    return CoxeterDiagram(labels=labels, edges=tuple(edges)), ()


def coxeter_diagram(P: ConePolytope) -> CoxeterDiagram:
    """Nodes per halfspace, m-2 strands for angle pi/m, dashed for zero angle,
    dotted for divergent.  Undefined (error) if P is not a Coxeter polytope."""
    diagram, bad = _coxeter_pass(P)
    if bad:
        pairs = ", ".join(f"({i},{j}) cos2={ang.cos2}" for i, j, ang in bad)
        raise ValueError(f"diagram undefined: non-submultiple angles at {pairs}")
    return diagram


# ---------------------------------------------------------------------------
# extremal rays


class Ray(Record):
    """An extremal ray: primitive generator, light-cone position, and the
    indices (into all_normals) of the inequalities vanishing on it."""

    __slots__ = ("generator", "position", "active_set")

    def __init__(
        self, generator: PicClass, position: LightConePosition, active_set: tuple[int, ...]
    ) -> None:
        set_field(self, "generator", generator)
        set_field(self, "position", position)
        set_field(self, "active_set", active_set)


def _minkowski_row(u: PicClass) -> tuple[int, ...]:
    """Standard-dot row r with r.x = pairing(u, x)."""
    c = u.coords
    return tuple([c[0]] + [-x for x in c[1:]])


def _primitive(v: list[int]) -> tuple[int, ...]:
    g = gcd(*v)
    return tuple([x // g for x in v])


def _dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _generators(
    rows: list[tuple[int, ...]], dim: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """(rays, lineality) of the cone {x in Q^dim : r.x >= 0 for every row r}.

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

    Two rays are adjacent iff no third ray vanishes on every row that
    both vanish on; this needs at least dim - len(lineality) - 2 common
    zeros, which rejects most pairs early.  Zero sets are int bitmasks
    over the row indices.  Every combination is reduced to its primitive
    integer vector, so all arithmetic stays in small ints.

    The cone is lineality + the nonnegative span of the rays; the rays
    are its extremal rays when the lineality is empty.
    """
    lineality = [tuple([int(i == j) for i in range(dim)]) for j in range(dim)]
    rays: list[tuple[int, ...]] = []
    zeros: list[int] = []  # bit k set: row k vanishes on the ray
    for k, row in enumerate(rows):
        bit = 1 << k
        values = [_dot(row, w) for w in lineality]
        pivot = next((i for i, a in enumerate(values) if a), None)
        if pivot is not None:
            p, a = lineality.pop(pivot), values[pivot]
            if a < 0:
                p, a = tuple([-x for x in p]), -a

            def eliminate(v: tuple[int, ...]) -> tuple[int, ...]:
                # a*v - b*p vanishes on the row and equals a*v modulo p
                b = _dot(row, v)
                return _primitive([a * x - b * y for x, y in zip(v, p)]) if b else v

            lineality = [eliminate(w) for w in lineality]
            rays = [eliminate(r) for r in rays]
            zeros = [z | bit for z in zeros]
            rays.append(p)
            zeros.append(bit - 1)
            continue
        values = [_dot(row, r) for r in rays]
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
                if any(
                    z & common == common and t != i and t != j
                    for t, z in enumerate(zeros)
                ):
                    continue
                a, b = values[i], -values[j]
                new_rays.append(
                    _primitive([a * x + b * y for x, y in zip(rays[j], rays[i])])
                )
                new_zeros.append(common | bit)
        rays, zeros = new_rays, new_zeros
    return rays, lineality


def extremal_rays(P: ConePolytope) -> list[Ray]:
    """All extremal rays of the cone, sorted by generator coordinates.

    Computed by integer double description over the Minkowski rows of
    P's normals.  Requires the cone to be pointed.
    """
    normals = P.all_normals
    rows = [_minkowski_row(u) for u in normals]
    rays, lineality = _generators(rows, P.n + 1)
    if lineality:
        raise ValueError(
            "cone is not pointed: it contains a line, so extremal rays "
            "do not determine it"
        )
    out = []
    for coords in sorted(rays):
        gen = PicClass(n=P.n, coords=coords)
        active = tuple([i for i, r in enumerate(rows) if _dot(r, coords) == 0])
        out.append(
            Ray(generator=gen, position=light_cone_position(gen), active_set=active)
        )
    return out


def boundary_rays(P: ConePolytope) -> list[Ray]:
    """Extremal rays on the light cone (square zero): ideal vertices."""
    return [r for r in extremal_rays(P) if r.position.tag == "boundary"]


def finite_volume(P: ConePolytope) -> bool:
    """True iff the cone sits inside the closed forward light cone:
    every extremal ray has square >= 0 and positive degree."""
    return all(
        pairing(r.generator, r.generator) >= 0 and r.generator.coords[0] > 0
        for r in extremal_rays(P)
    )


# ---------------------------------------------------------------------------
# minimality audit


def _implied(target: PicClass, among: tuple[PicClass, ...]) -> bool:
    """Is target a nonnegative combination of the normals in among?

    Farkas: exactly when pairing(target, x) >= 0 on the cone they cut
    out, i.e. when target vanishes on its lineality and is >= 0 on every
    ray of its double description.
    """
    row = _minkowski_row(target)
    rays, lineality = _generators([_minkowski_row(u) for u in among], target.n + 1)
    return all(_dot(row, w) == 0 for w in lineality) and all(
        _dot(row, r) >= 0 for r in rays
    )


def is_implied(P: ConePolytope, normal: PicClass) -> bool:
    """Does the inequality pairing(normal, x) >= 0 follow from P's?

    True exactly when normal is a nonnegative combination of P's normals
    (Farkas), which is read off the double description of P: normal
    vanishes on its lineality space and pairs >= 0 with every ray.
    Accepts any integer normal, including square >= 0 ones that could
    not join the halfspace list themselves.
    """
    if normal.n != P.n:
        raise ValueError(f"rank mismatch: cone has n = {P.n}, normal has n = {normal.n}")
    return _implied(normal, P.all_normals)


def redundant_constraints(P: ConePolytope) -> tuple[int, ...]:
    """Indices (into all_normals) of inequalities implied by the others.

    An inequality pairing(u, x) >= 0 follows from the rest exactly when
    u is a nonnegative combination of the remaining normals (Farkas);
    each normal is tested against the double description of the others.
    """
    normals = P.all_normals
    return tuple(
        i
        for i, u in enumerate(normals)
        if _implied(u, normals[:i] + normals[i + 1 :])
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
    """The closed-form vertex families against the computed extremal rays."""

    __slots__ = (
        "n", "expected_count", "formula_rays", "computed_rays", "count_ok", "sets_equal"
    )

    def __init__(
        self,
        n: int,
        expected_count: int,
        formula_rays: tuple[PicClass, ...],
        computed_rays: tuple[PicClass, ...],
        count_ok: bool,
        sets_equal: bool,
    ) -> None:
        set_field(self, "n", n)
        set_field(self, "expected_count", expected_count)
        set_field(self, "formula_rays", formula_rays)
        set_field(self, "computed_rays", computed_rays)
        set_field(self, "count_ok", count_ok)
        set_field(self, "sets_equal", sets_equal)

    def ok(self) -> bool:
        return self.count_ok and self.sets_equal


def verify_vertex_formulas(n: int) -> VertexFormulaReport:
    """Check the closed-form families against the computed extremal rays.

    The families should produce exactly the 9n-71 extremal rays of the
    -K-truncated cone.  Desk scale only (10 <= n <= 14).
    """
    if not 10 <= n <= 14:
        raise ValueError(f"vertex formula check supports 10 <= n <= 14, got {n}")
    fams = vertex_formula_families(n)
    formula = sorted({v.coords for vs in fams.values() for v in vs})
    computed = [r.generator for r in extremal_rays(build_P_minus(n))]
    expected = 9 * n - 71
    return VertexFormulaReport(
        n=n,
        expected_count=expected,
        formula_rays=tuple(PicClass(n=n, coords=c) for c in formula),
        computed_rays=tuple(computed),
        count_ok=(len(formula) == expected == len(computed)),
        sets_equal=(formula == [r.coords for r in computed]),
    )


# ---------------------------------------------------------------------------
# the region R of the finite-volume proof
#
# R lives in rational 3-space with coordinates (x_1, x_2, x_n) — an
# affine chart, handled with the standard inner product, independent of
# the Minkowski machinery.  Its five facets pin down the vertices of
# the -K-truncated cone with a tail of equal middle coordinates.


class RegionRRow(Record):
    """One triple of facet planes: where they meet (None if they do not),
    whether that point is a vertex of R, and f there."""

    __slots__ = ("triple", "point", "is_vertex", "f_value")

    def __init__(
        self,
        triple: tuple[int, int, int],
        point: tuple[Fraction, Fraction, Fraction] | None,
        is_vertex: bool,
        f_value: Fraction | None,
    ) -> None:
        set_field(self, "triple", triple)
        set_field(self, "point", point)
        set_field(self, "is_vertex", is_vertex)
        set_field(self, "f_value", f_value)


class RegionRReport(Record):
    """The ten triple intersections of region R and the f <= 1 summary."""

    __slots__ = (
        "n",
        "rows",
        "all_triples_meet",
        "vertex_count",
        "max_f_at_vertices",
        "f_le_1_at_vertices",
        "f_lt_1_when_xn_negative",
    )

    def __init__(
        self,
        n: int,
        rows: tuple[RegionRRow, ...],
        all_triples_meet: bool,
        vertex_count: int,
        max_f_at_vertices: Fraction,
        f_le_1_at_vertices: bool,
        f_lt_1_when_xn_negative: bool,
    ) -> None:
        set_field(self, "n", n)
        set_field(self, "rows", rows)
        set_field(self, "all_triples_meet", all_triples_meet)
        set_field(self, "vertex_count", vertex_count)
        set_field(self, "max_f_at_vertices", max_f_at_vertices)
        set_field(self, "f_le_1_at_vertices", f_le_1_at_vertices)
        set_field(self, "f_lt_1_when_xn_negative", f_lt_1_when_xn_negative)

    def ok(self) -> bool:
        return (
            self.all_triples_meet
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
    if n < 10:
        raise ValueError(f"region R is only considered for n >= 10, got {n}")
    cons = _region_constraints(n)
    rows = []
    for triple in itertools.combinations(range(5), 3):
        mat = [list(cons[i][0]) for i in triple]
        rhs = [cons[i][1] for i in triple]
        point = solve_unique(mat, rhs)
        if point is None:
            rows.append(RegionRRow(triple, None, False, None))
            continue
        feasible = all(
            sum(c * x for c, x in zip(coeffs, point)) >= r for coeffs, r in cons
        )
        f = point[0] ** 2 + (n - 2) * point[1] ** 2 + point[2] ** 2
        rows.append(RegionRRow(triple, point, feasible, f))
    vertices = [r for r in rows if r.is_vertex]
    max_f = max(r.f_value for r in vertices)
    return RegionRReport(
        n=n,
        rows=tuple(rows),
        all_triples_meet=all(r.point is not None for r in rows),
        vertex_count=len(vertices),
        max_f_at_vertices=max_f,
        f_le_1_at_vertices=all(r.f_value <= 1 for r in vertices),
        f_lt_1_when_xn_negative=all(
            r.f_value < 1 for r in vertices if r.point[2] < 0
        ),
    )
