"""Named verification checks behind the ``verify`` CLI command.

Each check compares a computed result against an independently stated
expected value (vertex lists, Cartan entries, counts, table rows) and
reports pass/fail.  One check is declared an expected failure
("xfail"): the claim that the 13-normal cone for n = 11 carries a
triple edge.  A triple edge means an angle of pi/5, and cos^2(pi/5) is
irrational, so no pair of integer normals can realize it; the angle
actually present is pi/4.  The xfail status records that the claimed
value is unattainable rather than silently substituting the true one.

Each check states its name, claim, suite and sample size once, in the
``@_check`` decorator on its body.  ``run_suite`` is the one loop that
runs them in declaration order: it seeds each sampled check's own
random stream, calls the body and classifies the outcome.  So a check
is deterministic given the seed.  Each covers a fixed window of n.
``decomposition`` checks one class per S_n orbit: 51 orbits stand for the 125,653 (-1)-classes of
degree 1..8 with n = 3..10.
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

from . import _EXPORTS
from .curves import (
    _multiplicity_multisets,
    _orbit_size,
    _orbits,
    decompose_inequality,
    enumerate_minus_one,
)
from .lattice import PicClass, Record, basis_vector, canonical_class, check_bound, pairing
from .nef import check_certificate, curve_check, fundamental_cone, is_nef_K_nonpositive
from .polytopes import (
    _boundary,
    _finite,
    _vertex_formula_report,
    EDGE_DASHED,
    EDGE_PLAIN,
    build_P,
    build_P_minus,
    build_P_tilde,
    cartan_matrix,
    coxeter_diagram,
    extremal_rays,
    is_coxeter,
    render_cartan_entry,
    verify_region_R,
)
from .weyl import (
    Phi,
    ReductionResult,
    Sigma,
    WeylWord,
    all_generators,
    apply_generator,
    apply_word,
    reduce_class,
)

__all__ = [*_EXPORTS["verify"]]

PASS = "pass"
FAIL = "fail"
XFAIL = "xfail"


class CheckResult(Record):
    """One check's outcome; its fields, in order, are the keys of a row of
    ``verify --format json``."""

    __slots__ = ("name", "status", "claim", "expected", "computed")


class VerificationReport(Record):
    """The results of a suite's checks, in declaration order."""

    __slots__ = ("checks",)

    def passed(self) -> bool:
        """No check failed, and there was one at least."""
        return bool(self.checks) and all(c.status != FAIL for c in self.checks)


# (name, claim, in the quick suite, xfail, trials, body) of every check,
# in declaration order
_CHECKS = []


def _check(name: str, claim: str, quick: bool = True, xfail: bool = False, trials: int = 0):
    """Declare the decorated body a check.  It returns ``(ok, expected,
    computed)``, and the check passes when ``ok`` holds, else fails (or
    is an expected failure, if ``xfail``).  A sampled check gives its
    sample size as ``trials``, and its body takes ``(rng, trials)``; any
    other body takes no argument."""

    def declare(body):
        _CHECKS.append((name, claim, quick, xfail, trials, body))
        return body

    return declare


def _findings(problems: list[str], expected: str) -> tuple[bool, str, str]:
    """A check's outcome from its findings: "ok" when there are none,
    else the first three."""
    return not problems, expected, "ok" if not problems else "; ".join(problems[:3])


# ---------------------------------------------------------------------------
# expected data, stated independently of the code under test

def _deg3(n: int, k: int) -> tuple[int, ...]:
    return (3,) + (-1,) * k + (0,) * (n - k)

# the 10 extremal rays of the truncated sorted cone at n = 9
_P9_RAYS = sorted(
    [
        (1,) + (0,) * 9,
        (1, -1) + (0,) * 8,
        (2, -1, -1) + (0,) * 7,
    ]
    + [_deg3(9, k) for k in range(3, 10)]
)

# its Cartan matrix: simple chain v_1..v_8, branch v_0-v_3, double bond
# at (v_8, v_9); everything else orthogonal
def _p9_cartan_tokens() -> list[list[str]]:
    out = [["0"] * 10 for _ in range(10)]
    for i in range(10):
        out[i][i] = "2"
    pairs = [(0, 3)] + [(i, i + 1) for i in range(1, 8)]
    for i, j in pairs:
        out[i][j] = out[j][i] = "-1"
    out[8][9] = out[9][8] = "-sqrt(2)"
    return out

# region-R table: triple of active planes -> (is_vertex, f) for the two
# sampled n; planes indexed 0: x1+2x2>=-1, 1: x2>=x1, 2: xn>=x2,
# 3: xn<=0, 4: x1+(n-2)x2+xn>=-3
_REGION_EXPECT = {
    10: {
        (0, 1, 2): (False, None),
        (0, 1, 3): (True, Fraction(1)),
        (0, 1, 4): (True, Fraction(1)),
        (0, 2, 3): (True, Fraction(1)),
        (0, 2, 4): (True, Fraction(45, 49)),
        (0, 3, 4): (True, Fraction(1)),
        (1, 2, 3): (True, Fraction(0)),
        (1, 2, 4): (True, Fraction(9, 10)),
        (1, 3, 4): (True, Fraction(1)),
        (2, 3, 4): (False, None),
    },
    12: {
        (0, 1, 2): (False, None),
        (0, 1, 3): (False, None),
        (0, 1, 4): (False, None),
        (0, 2, 3): (True, Fraction(1)),
        (0, 2, 4): (True, Fraction(23, 27)),
        (0, 3, 4): (True, Fraction(7, 8)),
        (1, 2, 3): (True, Fraction(0)),
        (1, 2, 4): (True, Fraction(3, 4)),
        (1, 3, 4): (True, Fraction(9, 11)),
        (2, 3, 4): (False, None),
    },
}

_CURVE_COUNTS = {3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


# ---------------------------------------------------------------------------
# the checks


@_check("cartan_p9",
        "Cartan matrix of the truncated sorted cone at n=9: chain with a "
        "branch at v_3 and one -sqrt(2) pair at (v_8, v_9)")
def _check_cartan_p9():
    expected = _p9_cartan_tokens()
    computed = [
        [render_cartan_entry(e) for e in row] for row in cartan_matrix(build_P(9))
    ]
    return (
        computed == expected,
        "10x10 matrix over {2, 0, -1, -sqrt(2)}",
        "match" if computed == expected else f"mismatch: {computed}",
    )


@_check("cartan_sorted_cone",
        "the sorted cone's Cartan entries are only 2, 0, -1 (and it is "
        "Coxeter) for n = 9..13")
def _check_cartan_sorted_cone():
    problems = []
    for n in range(9, 14):
        P = build_P_tilde(n)
        tokens = {render_cartan_entry(e) for row in cartan_matrix(P) for e in row}
        coxeter = bool(is_coxeter(P))
        if not tokens <= {"2", "0", "-1"} or not coxeter:
            problems.append(f"n={n}: entries {sorted(tokens)}, coxeter={coxeter}")
    return _findings(problems, "entries in {2,0,-1}, Coxeter for all n")


@_check("rays_p9",
        "the truncated sorted cone at n=9 is simplicial with 10 known "
        "extremal rays, exactly 2 on the light cone")
def _check_rays_p9():
    rays = extremal_rays(build_P(9))
    coords = [r.generator.coords for r in rays]
    bnd = [r.generator.coords for r in _boundary(rays)]
    expected_bnd = sorted([(1, -1) + (0,) * 8, _deg3(9, 9)])
    ok = coords == _P9_RAYS and sorted(bnd) == expected_bnd
    return (
        ok,
        f"10 rays, boundary {expected_bnd}",
        f"{len(coords)} rays, boundary {sorted(bnd)}",
    )


@_check("vertex_formulas",
        "closed-form vertex families reproduce all 9n-71 extremal rays of "
        "the -K-truncated cone; 2 boundary rays; finite volume",
        quick=False)
def _check_vertex_formulas():
    expected_parts = []
    computed_parts = []
    ok = True
    for n in range(10, 15):
        # one ray list serves the families, the boundary and the volume
        rays = extremal_rays(build_P_minus(n))
        rep = _vertex_formula_report(n, rays)
        bnd = sorted(r.generator.coords for r in _boundary(rays))
        expected_bnd = sorted([(1, -1) + (0,) * (n - 1), (3,) + (-1,) * 9 + (0,) * (n - 9)])
        vol = _finite(rays)
        ok = ok and rep.ok() and bnd == expected_bnd and vol
        expected_parts.append(f"n={n}: {9 * n - 71} rays, 2 boundary, finite")
        computed_parts.append(
            f"n={n}: {len(rep.computed_rays)} rays (families "
            f"{'=' if rep.sets_equal else '!='}), {len(bnd)} boundary, "
            f"{'finite' if vol else 'infinite'}"
        )
    return (
        ok,
        "; ".join(expected_parts),
        "; ".join(computed_parts),
    )


@_check("p10_infinite_volume",
        "without the -K cut the n=10 cone leaves the closed light cone: "
        "ray (3,-1^10) has square -1")
def _check_p10_infinite():
    rays = extremal_rays(build_P(10))
    vol = _finite(rays)
    negative = [
        r.generator.coords
        for r in rays
        if pairing(r.generator, r.generator) < 0
    ]
    witness = (3,) + (-1,) * 10
    ok = (not vol) and witness in negative
    return (
        ok,
        f"infinite volume, {witness} among negative-square rays",
        f"{'finite' if vol else 'infinite'}, negative-square rays {negative}",
    )


@_check("coxeter_classification",
        "the -K-truncated cone is Coxeter exactly for n in {10,11,13}; "
        "otherwise the pair (e_n, -K) has cos^2 = 1/(n-9), not a "
        "submultiple")
def _check_coxeter_classification():
    good = {10, 11, 13}
    problems = []
    for n in range(10, 21):
        P = build_P_minus(n)
        chk = is_coxeter(P)
        if chk.is_coxeter != (n in good):
            problems.append(f"n={n}: coxeter={chk.is_coxeter}")
            continue
        if not chk.is_coxeter:
            pairs = {(i, j): a for i, j, a in chk.offending}
            ang = pairs.get((n, n + 1))
            if ang is None or ang.cos2 != Fraction(1, n - 9):
                problems.append(f"n={n}: (e_n, -K) cos^2 {None if ang is None else ang.cos2}")
    return _findings(problems, "Coxeter iff n in {10,11,13} over n=10..20")


def _branched_chain(k: int, *tail: tuple[int, int, int]) -> set[tuple[int, int, int]]:
    # single edges v_1 - ... - v_k, the branch v_0 - v_3, then the tail edges
    return {(0, 3, 1)} | {(i, i + 1, 1) for i in range(1, k)} | set(tail)


def _diagram_check(P, plain: set, dashed: set = frozenset()):
    # plain edges are (i, j, multiplicity), dashed ones (i, j); a dotted edge fails
    edges = coxeter_diagram(P).edges
    got_plain = sorted((e.i, e.j, e.multiplicity) for e in edges if e.style == EDGE_PLAIN)
    got_dashed = sorted((e.i, e.j) for e in edges if e.style == EDGE_DASHED)
    ok = (got_plain, got_dashed) == (sorted(plain), sorted(dashed))
    ok = ok and len(edges) == len(plain) + len(dashed)
    expected, computed = str(sorted(plain)), str(got_plain)
    if dashed:
        expected = f"dashed {dashed}, plain {expected}"
        computed = f"dashed {got_dashed}, plain {computed}"
    return ok, expected, computed


@_check("diagram_p9",
        "n=9 diagram: path of 8 single edges with a branch at the third "
        "node and one terminal double edge")
def _check_diagram_p9():
    return _diagram_check(build_P(9), _branched_chain(8, (8, 9, 2)))


@_check("diagram_p_minus_10",
        "n=10 diagram: one dashed edge (e_10, -K) for the zero angle")
def _check_diagram_p_minus_10():
    return _diagram_check(build_P_minus(10), _branched_chain(9, (9, 10, 2)), dashed={(10, 11)})


@_check("diagram_p_minus_11_triple_edge",
        "claimed: the n=11 diagram ends in a triple edge (angle pi/5). "
        "Unattainable: cos^2(pi/5) is irrational while integer normals "
        "force rational cos^2; the (e_11, -K) angle is pi/4",
        xfail=True)
def _check_diagram_p_minus_11_triple():
    dia = coxeter_diagram(build_P_minus(11))
    triples = [e for e in dia.edges if e.style == EDGE_PLAIN and e.multiplicity == 3]
    return (
        bool(triples),
        "a multiplicity-3 edge",
        "none (the (11,12) edge has multiplicity 2)" if not triples else str(triples),
    )


@_check("diagram_p_minus_11",
        "n=11 diagram as computed: two double edges (v_10,v_11) and "
        "(v_11,v_12), both angles pi/4")
def _check_diagram_p_minus_11_true():
    return _diagram_check(build_P_minus(11), _branched_chain(10, (10, 11, 2), (11, 12, 2)))


@_check("diagram_p_minus_13",
        "n=13 diagram: chain with the branch, one double edge "
        "(v_12,v_13), and a single edge to the -K node (angle pi/3)")
def _check_diagram_p_minus_13():
    return _diagram_check(build_P_minus(13), _branched_chain(12, (12, 13, 2), (13, 14, 1)))


@_check("region_r_table",
        "region-R vertex classification and exact f-values for n=10 and "
        "n=12; max f = 1 attained only with x_n = 0")
def _check_region_r():
    problems = []
    for n, table in _REGION_EXPECT.items():
        rep = verify_region_R(n)
        if not rep.ok():
            problems.append(f"n={n}: the f <= 1 summary fails ({rep.vertex_count} vertices)")
            continue
        for row in rep.rows:
            want_vertex, want_f = table[row.triple]
            if row.is_vertex != want_vertex:
                problems.append(f"n={n} {row.triple}: vertex={row.is_vertex}")
            elif want_vertex and row.f_value != want_f:
                problems.append(f"n={n} {row.triple}: f={row.f_value}!={want_f}")
        # ok() gives f <= 1 at every vertex and f < 1 off x_n = 0, so a
        # maximum of 1 is attained, and only with x_n = 0
        if rep.max_f_at_vertices != 1:
            problems.append(f"n={n}: max f {rep.max_f_at_vertices}")
    return _findings(problems, "table rows as stated")


@_check("curve_counts",
        "(-1)-class counts 6, 10, 16, 27, 56, 240 for n = 3..8, already "
        "saturated at degree 6",
        quick=False)
def _check_curve_counts():
    problems = []
    for n, want in _CURVE_COUNTS.items():
        classes = enumerate_minus_one(n, 6)
        saturated = enumerate_minus_one(n, 9)
        if len(classes) != want or len(saturated) != want:
            problems.append(f"n={n}: {len(classes)} (deg<=9: {len(saturated)})")
        k = canonical_class(n)
        if any(pairing(c, c) != -1 or pairing(c, k) != -1 for c in classes):
            problems.append(f"n={n}: a class fails the pairing conditions")
    return _findings(problems, str(_CURVE_COUNTS))


@_check("decomposition",
        "every (-1)-class of degree 1..8 splits as d-1 cubic normals "
        "plus one conic normal, summing back coordinatewise",
        quick=False)
def _check_decomposition():
    # One class per S_n orbit suffices.  Permuting the points maps cubic
    # normals to cubic normals and conic normals to conic normals, so it
    # maps a decomposition of c to one of the permuted class; and the
    # orbit of a (-1)-class is the set of placements of its multiplicity
    # multiset, which therefore stands for _orbit_size classes.
    problems = []
    orbits = total = 0
    for n in range(3, 11):
        for d, multiset in _orbits(n, 8):
            if d == 0:
                continue  # the e_i have no decomposition
            tail = tuple(-m for m in multiset) + (0,) * (n - len(multiset))
            c = PicClass._trusted(n, (d,) + tail)
            orbits += 1
            total += _orbit_size(multiset, n)
            dec = decompose_inequality(c)
            if len(dec.cubics) != d - 1 or dec.total() != c:
                problems.append(f"{c.coords}")
    return (
        not problems,
        "d-1 cubics + conic for all classes",
        f"{orbits} orbits, {total} classes decomposed"
        + ("" if not problems else f"; failures {problems[:3]}"),
    )


@_check("group_action",
        "pairing invariance, involutivity, K-fixing, and the "
        "phi_134 phi_234 phi_134 = sigma_1 identity on random classes",
        trials=10_000)
def _check_group_action(rng: random.Random, trials: int):
    problems = []
    ns = (9, 10, 13)
    gens_of = {n: all_generators(n) for n in ns}
    k_of = {n: canonical_class(n) for n in ns}
    sigma_word = WeylWord((Phi(1, 3, 4), Phi(2, 3, 4), Phi(1, 3, 4)))
    for t in range(trials):
        n = rng.choice(ns)
        u = PicClass(n, tuple(rng.randint(-9, 9) for _ in range(n + 1)))
        v = PicClass(n, tuple(rng.randint(-9, 9) for _ in range(n + 1)))
        g = rng.choice(gens_of[n])
        k = k_of[n]
        if pairing(apply_generator(g, u), apply_generator(g, v)) != pairing(u, v):
            problems.append(f"trial {t}: {g} changes a pairing")
        elif apply_generator(g, apply_generator(g, u)) != u:
            problems.append(f"trial {t}: {g} is not an involution")
        elif apply_generator(g, k) != k:
            problems.append(f"trial {t}: {g} moves K")
        elif apply_word(sigma_word, u) != apply_generator(Sigma(1), u):
            problems.append(f"trial {t}: phi_134 phi_234 phi_134 != sigma_1")
    first = "" if not problems else f", first {'; '.join(problems[:3])}"
    return not problems, f"{trials} trials clean", f"{len(problems)} failures{first}"


def _interior_point(n: int, rng: random.Random) -> PicClass:
    # strictly increasing negative tail => every sorting inequality strict
    tail = []
    value = -rng.randint(1, 4)
    for _ in range(n):
        tail.append(value)
        value -= rng.randint(1, 4)
    tail.reverse()  # x_1 < x_2 < ... < x_n < 0
    lower = max(-(tail[0] + tail[1] + tail[2]), (-sum(tail) + 2) // 3)
    x0 = lower + rng.randint(1, 5)  # strict in both remaining inequalities
    return PicClass(n, (x0, *tail))


def _k_nonpositive(ns: tuple[int, ...], rng: random.Random) -> PicClass:
    # n from ns, coordinates from -10..10, redrawn until v is nonzero
    # with v.K <= 0
    while True:
        n = rng.choice(ns)
        v = PicClass(n, tuple(rng.randint(-10, 10) for _ in range(n + 1)))
        if not v.is_zero() and pairing(v, canonical_class(n)) <= 0:
            return v


@_check("round_trip",
        "interior cone points survive word-then-reduce exactly, with a "
        "verifying witness; not-nef witnesses pair negatively with the "
        "input and are the input itself or effective",
        trials=1_000)
def _check_round_trip(rng: random.Random, trials: int):
    problems = []
    ns = (9, 12)
    gens_of = {n: all_generators(n) for n in ns}
    for t in range(trials):
        n = rng.choice(ns)
        v = _interior_point(n, rng)
        gens = gens_of[n]
        word = WeylWord(tuple(rng.choice(gens) for _ in range(rng.randint(0, 30))))
        moved = apply_word(word, v)
        res = reduce_class(moved)
        if (
            res.status != ReductionResult.IN_CONE
            or res.reduced != v
            or apply_word(res.witness, moved) != v
        ):
            problems.append(f"trial {t}: {v.coords} via {len(word.gens)} gens")
    # NotNef witnesses must certify themselves on the input
    checked = 0
    while checked < trials:
        v = _k_nonpositive(ns, rng)
        res = is_nef_K_nonpositive(v)
        if res.is_nef():
            continue
        checked += 1
        if not check_certificate(v, res):
            problems.append(f"witness fails: {v.coords} -> {res.witness.coords}")
    return _findings(problems, f"{trials} round trips + {trials} witnesses clean")


@_check("cross_method",
        "exact reduction and the degree-8 curve check agree on random "
        "K-nonpositive classes, on nef classes moved by a word and on "
        "such classes pushed off a (-1)-class; nef classes violate no "
        "curve, every not-nef curve-check witness certifies its verdict, "
        "and at least half the classes reach the curve scan",
        quick=False, trials=1_000)
def _check_cross_method(rng: random.Random, trials: int):
    # Uniform draws from a box almost always have v^2 < 0, where
    # curve_check stops before its curve scan.  So as many classes again
    # are nef (interior points moved by a word) or, every second one,
    # such a class plus k c for a (-1)-class c of degree 2..8 with
    # k = v.c + 1: then v.c goes negative while v^2 stays >= 0.  Every
    # one of these reaches the scan, and the check counts that it does.
    classes = [_k_nonpositive((9, 10), rng) for _ in range(trials)]
    gens_of = {n: all_generators(n) for n in (9, 10)}
    for t in range(trials):
        n = rng.choice((9, 10))
        word = WeylWord(tuple(rng.choice(gens_of[n]) for _ in range(rng.randint(0, 30))))
        v = apply_word(word, _interior_point(n, rng))
        if t % 2:
            d = rng.randint(2, 8)
            multiset = rng.choice(list(_multiplicity_multisets(d, n)))
            placement = [*multiset] + [0] * (n - len(multiset))
            rng.shuffle(placement)
            c = PicClass(n, (d, *(-m for m in placement)))
            k = pairing(v, c) + 1
            v = PicClass(n, tuple(a + k * b for a, b in zip(v.coords, c.coords)))
        classes.append(v)
    problems = []
    scanned = 0
    for v in classes:
        scanned += pairing(v, v) >= 0
        exact = is_nef_K_nonpositive(v)
        bounded = curve_check(v, max_degree=8)
        if exact.verdict != bounded.verdict:
            problems.append(f"{v.coords}: {exact.verdict} vs {bounded.verdict}")
        elif not bounded.is_nef() and not check_certificate(v, bounded):
            problems.append(f"{v.coords}: witness fails: {bounded.witness.coords}")
    return (
        not problems and scanned >= trials,
        f"{2 * trials} classes, at least {trials} reach the curve scan, full agreement",
        f"{2 * trials} classes, {scanned} reach the curve scan, "
        + ("full agreement" if not problems else "; ".join(problems[:3])),
    )


@_check("fundamental_cone",
        "the fundamental cone has n+1 facets through n=9 and n+2 from "
        "n=10 on, and always contains e_0")
def _check_fundamental_cone_membership():
    ok = True
    parts = []
    for n in (3, 6, 9, 10, 14):
        P = fundamental_cone(n)
        count = len(P.all_normals)
        want = n + 1 if n <= 9 else n + 2
        inside = all(pairing(u, basis_vector(n, 0)) >= 0 for u in P.all_normals)
        ok = ok and count == want and inside
        parts.append(f"n={n}: {count} normals")
    return (
        ok,
        "n+1 (n<=9) / n+2 (n>=10) normals, e_0 inside",
        "; ".join(parts),
    )


def _suite(suite: str) -> list[tuple]:
    """The declared checks of a suite, in declaration order."""
    if suite not in ("paper", "quick"):
        raise ValueError(f"unknown suite {suite!r}")
    return [check for check in _CHECKS if suite == "paper" or check[2]]


def check_names(suite: str = "paper") -> list[str]:
    return [check[0] for check in _suite(suite)]


def run_suite(suite: str = "paper", seed: int = 0) -> VerificationReport:
    """Run the named checks in declaration order.

    ``paper`` runs all 18; ``quick`` runs the 14 fast ones, with the
    random samples cut 20-fold.  ``seed`` fixes those samples: a sampled
    check draws from its own stream, keyed by its name.
    """
    check_bound("seed", seed)
    results = []
    for name, claim, _, xfail, trials, body in _suite(suite):
        args = (
            random.Random(seed ^ zlib.crc32(name.encode())),
            trials if suite == "paper" else max(1, trials // 20),
        ) if trials else ()
        ok, expected, computed = body(*args)
        status = PASS if ok else XFAIL if xfail else FAIL
        results.append(CheckResult(name, status, claim, expected, computed))
    return VerificationReport(checks=tuple(results))
