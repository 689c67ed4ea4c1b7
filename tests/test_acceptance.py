"""Acceptance suite: one test per headline claim, exact arithmetic, zero
tolerance.  Expected values are frozen here, or in oracles.py where a
unit test checks them too, independently of the library internals (ray
lists, Cartan tokens, table rows, counts were derived by hand or by the
oracles in oracles.py before the implementation existed).

One subpart is an expected failure, kept failing on purpose: the claim
that the 13-facet cone at n = 11 carries a *triple* edge.  A triple edge
means dihedral angle pi/5, and cos^2(pi/5) = (3+sqrt(5))/8 is irrational,
while every angle between integer normals has rational cos^2.  The pair
in question meets at pi/4 (a double edge); the companion test pins that
down.  See the strict xfail below.

Run with ``pytest -v tests/test_acceptance.py`` for the one-line-per-
criterion report.  Target: well under 60 seconds total.
"""

import functools
import random
from fractions import Fraction

import pytest

from cremona.curves import decompose_inequality, enumerate_minus_one
from cremona.lattice import PicClass, canonical_class, pairing
from cremona.nef import check_certificate, curve_check, is_nef_K_nonpositive
from cremona.polytopes import (
    EDGE_DASHED,
    EDGE_PLAIN,
    boundary_rays,
    build_P,
    build_P_minus,
    build_P_tilde,
    cartan_matrix,
    coxeter_diagram,
    extremal_rays,
    finite_volume,
    is_coxeter,
    render_cartan_entry,
    verify_region_R,
    verify_vertex_formulas,
)
from cremona.weyl import (
    Phi,
    ReductionResult,
    Sigma,
    WeylWord,
    all_generators,
    apply_generator,
    apply_word,
    reduce_class,
)
from oracles import CURVE_COUNTS, P9_BOUNDARY_RAYS, P9_RAYS, P10_ESCAPING_RAYS, tree_canonical_form


@functools.cache
def curves(n: int, max_degree: int):
    return enumerate_minus_one(n, max_degree)


def tokens(P) -> list[list[str]]:
    return [[render_cartan_entry(e) for e in row] for row in cartan_matrix(P)]


# --- 1. Cartan matrix of the truncated sorted cone at n = 9 ----------------

def test_criterion_01_cartan_p9_exact():
    expected = [["0"] * 10 for _ in range(10)]
    for i in range(10):
        expected[i][i] = "2"
    for i, j in [(0, 3)] + [(i, i + 1) for i in range(1, 8)]:
        expected[i][j] = expected[j][i] = "-1"
    expected[8][9] = expected[9][8] = "-sqrt(2)"
    assert tokens(build_P(9)) == expected


# --- 2. sorted-cone Cartan entries are 2 / 0 / -1 ---------------------------

def test_criterion_02_sorted_cone_integer_cartan():
    for n in range(9, 14):
        P = build_P_tilde(n)
        assert {t for row in tokens(P) for t in row} <= {"2", "0", "-1"}
        assert is_coxeter(P)


# --- 3. the 10 extremal rays at n = 9 ---------------------------------------

def test_criterion_03_p9_extremal_rays():
    rays = extremal_rays(build_P(9))
    assert [r.generator.coords for r in rays] == P9_RAYS
    on_boundary = sorted(r.generator.coords for r in boundary_rays(build_P(9)))
    assert on_boundary == P9_BOUNDARY_RAYS


# --- 4. vertex families of the -K truncation, n = 10..14 --------------------

@pytest.mark.parametrize("n", range(10, 15))
def test_criterion_04_vertex_families(n):
    rep = verify_vertex_formulas(n)
    assert rep.ok()
    assert len(rep.computed_rays) == 9 * n - 71
    bnd = sorted(r.generator.coords for r in boundary_rays(build_P_minus(n)))
    assert bnd == [
        (1, -1) + (0,) * (n - 1),
        (3,) + (-1,) * 9 + (0,) * (n - 9),
    ]
    assert finite_volume(build_P_minus(n))


# --- 5. without the -K cut, n = 10 escapes the light cone -------------------

def test_criterion_05_p10_infinite_volume():
    P = build_P(10)
    assert not finite_volume(P)
    escaping = [
        r.generator.coords
        for r in extremal_rays(P)
        if pairing(r.generator, r.generator) < 0
    ]
    assert escaping == P10_ESCAPING_RAYS


# --- 6. Coxeter classification of the -K truncation -------------------------

def test_criterion_06_coxeter_iff_10_11_13():
    for n in range(10, 21):
        chk = is_coxeter(build_P_minus(n))
        assert chk.is_coxeter == (n in (10, 11, 13)), n
        if not chk.is_coxeter:
            offending = {(i, j): a for i, j, a in chk.offending}
            assert offending[(n, n + 1)].cos2 == Fraction(1, n - 9)


# --- 7. the four diagram claims ---------------------------------------------

def test_criterion_07a_diagram_p9_graph():
    dia = coxeter_diagram(build_P(9))
    mine = tree_canonical_form(
        list(range(10)), [(e.i, e.j, e.multiplicity) for e in dia.edges]
    )
    # stated shape: a path a-b-c-d-e-f-g-h of single edges, an extra leaf
    # at the third node, a double edge hanging off the last node
    expected_edges = [
        ("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "e", 1),
        ("e", "f", 1), ("f", "g", 1), ("g", "h", 1),
        ("c", "branch", 1), ("h", "tip", 2),
    ]
    nodes = ["a", "b", "c", "d", "e", "f", "g", "h", "branch", "tip"]
    assert mine == tree_canonical_form(nodes, expected_edges)


def test_criterion_07b_diagram_p_minus_10_dashed_edge():
    dia = coxeter_diagram(build_P_minus(10))
    dashed = [(e.i, e.j) for e in dia.edges if e.style == EDGE_DASHED]
    assert dashed == [(10, 11)]  # the x_n facet against the -K facet
    plain = {(e.i, e.j, e.multiplicity) for e in dia.edges if e.style == EDGE_PLAIN}
    assert plain == {(0, 3, 1), (9, 10, 2)} | {(i, i + 1, 1) for i in range(1, 9)}


@pytest.mark.xfail(
    strict=True,
    reason="the claimed diagram has a triple edge at n = 11, i.e. angle "
    "pi/5; cos^2(pi/5) is irrational, so integer facet normals cannot "
    "realize it — the (e_11, -K) pair actually meets at pi/4",
)
def test_criterion_07c_diagram_p_minus_11_triple_edge():
    dia = coxeter_diagram(build_P_minus(11))
    assert any(
        e.multiplicity == 3 for e in dia.edges if e.style == EDGE_PLAIN
    ), "no triple edge exists"


def test_criterion_07c_companion_p_minus_11_actual_diagram():
    # what the Cartan data says instead: two double edges at the tail
    dia = coxeter_diagram(build_P_minus(11))
    assert all(e.style == EDGE_PLAIN for e in dia.edges)
    edges = {(e.i, e.j, e.multiplicity) for e in dia.edges}
    assert edges == {(0, 3, 1), (10, 11, 2), (11, 12, 2)} | {
        (i, i + 1, 1) for i in range(1, 10)
    }


def test_criterion_07d_diagram_p_minus_13_double_edge():
    dia = coxeter_diagram(build_P_minus(13))
    assert all(e.style == EDGE_PLAIN for e in dia.edges)
    edges = {(e.i, e.j, e.multiplicity) for e in dia.edges}
    assert edges == {(0, 3, 1), (12, 13, 2), (13, 14, 1)} | {
        (i, i + 1, 1) for i in range(1, 12)
    }


# --- 8. the region-R table ---------------------------------------------------

REGION_TABLE = {
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


@pytest.mark.parametrize("n", sorted(REGION_TABLE))
def test_criterion_08_region_r_table(n):
    rep = verify_region_R(n)
    assert rep.ok()
    for row in rep.rows:
        want_vertex, want_f = REGION_TABLE[n][row.triple]
        assert row.is_vertex == want_vertex, row.triple
        if want_vertex:
            assert row.f_value == want_f, row.triple
    # f = 1 happens only on the x_n = 0 plane
    for row in rep.rows:
        if row.is_vertex and row.f_value == 1:
            assert row.point[2] == 0


# --- 9. (-1)-class counts (frozen from the brute-force oracle) ---------------

def test_criterion_09_curve_counts_saturate():
    for n, want in CURVE_COUNTS.items():
        at_six = curves(n, 6)
        assert len(at_six) == want, n
        assert len(curves(n, 9)) == want, n  # saturated: nothing above deg 6
        k = canonical_class(n)
        for c in at_six:
            assert pairing(c, c) == -1 and pairing(c, k) == -1


# --- 10. the decomposition claim ---------------------------------------------

def test_criterion_10_decomposition():
    checked = 0
    for n in range(3, 11):
        for c in curves(n, 8):
            d = c.coords[0]
            if d < 1:
                continue
            dec = decompose_inequality(c)
            assert len(dec.cubics) == d - 1
            assert dec.total() == c
            for part in dec.parts():
                assert part.coords[0] == 1
                assert all(x in (0, -1) for x in part.coords[1:])
            checked += 1
    assert checked > 500


# --- 11. group-action properties on 10,000 random classes --------------------

def test_criterion_11_group_action_properties():
    rng = random.Random(20260818)
    sigma_word = WeylWord((Phi(1, 3, 4), Phi(2, 3, 4), Phi(1, 3, 4)))
    gens = {n: all_generators(n) for n in (9, 10, 13)}
    for _ in range(10_000):
        n = rng.choice((9, 10, 13))
        u = PicClass(n, tuple(rng.randint(-9, 9) for _ in range(n + 1)))
        v = PicClass(n, tuple(rng.randint(-9, 9) for _ in range(n + 1)))
        g = rng.choice(gens[n])
        assert pairing(apply_generator(g, u), apply_generator(g, v)) == pairing(u, v)
        assert apply_generator(g, apply_generator(g, u)) == u
        k = canonical_class(n)
        assert apply_generator(g, k) == k
        assert apply_word(sigma_word, u) == apply_generator(Sigma(1), u)


# --- 12. fundamental-domain round trip ----------------------------------------

def interior_point(n, rng):
    tail, value = [], -rng.randint(1, 4)
    for _ in range(n):
        tail.append(value)
        value -= rng.randint(1, 4)
    tail.reverse()  # strictly increasing, all negative
    lower = max(-(tail[0] + tail[1] + tail[2]), (-sum(tail) + 2) // 3)
    return PicClass(n, (lower + rng.randint(1, 5), *tail))


def test_criterion_12_round_trip():
    rng = random.Random(404)
    for _ in range(1_000):
        n = rng.choice((9, 12))
        v = interior_point(n, rng)
        gens = all_generators(n)
        word = WeylWord(tuple(rng.choice(gens) for _ in range(rng.randint(0, 30))))
        moved = apply_word(word, v)
        res = reduce_class(moved)
        assert res.status == ReductionResult.IN_CONE
        assert res.reduced == v
        assert apply_word(res.witness, moved) == v
    checked = 0
    while checked < 1_000:
        n = rng.choice((9, 12))
        v = PicClass(n, tuple(rng.randint(-10, 10) for _ in range(n + 1)))
        if v.is_zero() or pairing(v, canonical_class(n)) > 0:
            continue
        res = reduce_class(v)
        if res.status != ReductionResult.NOT_NEF:
            continue
        checked += 1
        assert pairing(res.violated, v) < 0


# --- 13. cross-method consistency ----------------------------------------------

def test_criterion_13_reduction_agrees_with_curve_check():
    rng = random.Random(0)
    classes = []
    while len(classes) < 1_000:
        n = rng.choice((9, 10))
        v = PicClass(n, tuple(rng.randint(-10, 10) for _ in range(n + 1)))
        if v.is_zero() or pairing(v, canonical_class(n)) > 0:
            continue
        classes.append(v)
    # those draws all but never reach the curve scan (v^2 < 0 stops
    # curve_check first), so as many again that do: nef classes moved by
    # a word, and every second one pushed off a (-1)-class c of degree
    # >= 2 by k c with k = v.c + 1, which keeps v^2 >= 0
    deep = {n: [c for c in curves(n, 8) if c.coords[0] >= 2] for n in (9, 10)}
    for t in range(1_000):
        n = rng.choice((9, 10))
        gens = all_generators(n)
        word = WeylWord(tuple(rng.choice(gens) for _ in range(rng.randint(0, 30))))
        v = apply_word(word, interior_point(n, rng))
        if t % 2:
            c = rng.choice(deep[n])
            k = pairing(v, c) + 1
            v = PicClass(n, tuple(a + k * b for a, b in zip(v.coords, c.coords)))
        classes.append(v)
    scanned = 0
    for v in classes:
        scanned += pairing(v, v) >= 0
        exact = is_nef_K_nonpositive(v)
        assert check_certificate(v, exact), v.coords
        bounded = curve_check(v, max_degree=8)
        assert exact.verdict == bounded.verdict, v.coords
        if exact.is_nef():
            assert bounded.witness is None
    assert scanned >= 1_000, f"only {scanned} of 2000 classes reached the curve scan"
