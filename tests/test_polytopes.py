"""Cone constructions, exact angles, Cartan/Coxeter data, extremal rays
(against the brute-force oracle), minimality audits, vertex families,
and the region-R table."""

import itertools
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cremona.lattice import (
    PicClass,
    anticanonical_class,
    basis_vector,
    pairing,
)
from cremona import polytopes
from cremona.nef import fundamental_cone
from cremona.polytopes import (
    _dots,
    _minkowski_row,
    _region_constraints,
    DIVERGENT,
    EDGE_DASHED,
    EDGE_DOTTED,
    EDGE_PLAIN,
    NON_SUBMULTIPLE,
    PI_OVER,
    ZERO_ANGLE,
    CartanEntry,
    ConePolytope,
    CoxeterDiagram,
    DiagramEdge,
    Halfspace,
    RegionRReport,
    RegionRRow,
    VertexFormulaReport,
    boundary_rays,
    build_P,
    build_P_minus,
    build_P_tilde,
    cartan_matrix,
    classify_angle,
    coxeter_diagram,
    extremal_rays,
    finite_volume,
    gram_matrix,
    is_coxeter,
    is_implied,
    membership,
    redundant_constraints,
    render_cartan_entry,
    verify_region_R,
    verify_vertex_formulas,
    vertex_formula_families,
)
from oracles import (
    P9_BOUNDARY_RAYS,
    P9_RAYS,
    P10_ESCAPING_RAYS,
    brute_force_implied,
    brute_force_rays,
    minkowski,
    reference_angle,
    reference_angles,
    sympy_rank,
    tree_canonical_form,
)


def minkowski_rows(P):
    out = []
    for u in P.all_normals:
        c = u.coords
        out.append((c[0],) + tuple(-x for x in c[1:]))
    return out


class TestBuilders:
    def test_sorted_cone_normals(self):
        P = build_P_tilde(5)
        assert [h.normal.coords for h in P.halfspaces] == [
            (1, -1, -1, -1, 0, 0),
            (0, 1, -1, 0, 0, 0),
            (0, 0, 1, -1, 0, 0),
            (0, 0, 0, 1, -1, 0),
            (0, 0, 0, 0, 1, -1),
        ]

    def test_facet_counts(self):
        assert len(build_P_tilde(9).halfspaces) == 9
        assert len(build_P(9).halfspaces) == 10
        assert len(build_P_minus(10).halfspaces) == 12

    def test_truncation_normals(self):
        assert build_P(7).halfspaces[-1].normal == basis_vector(7, 7)
        assert build_P_minus(11).halfspaces[-1].normal == anticanonical_class(11)

    def test_small_n_rejected(self):
        for builder in (build_P_tilde, build_P):
            with pytest.raises(ValueError):
                builder(2)

    def test_minus_k_truncation_needs_ten_points(self):
        # at n = 9 the -K normal has square 0 and the cut is implied
        with pytest.raises(ValueError):
            build_P_minus(9)
        with pytest.raises(ValueError):
            build_P_minus(3)

    def test_halfspace_rejects_nonnegative_square(self):
        with pytest.raises(ValueError):
            Halfspace(basis_vector(4, 0))
        with pytest.raises(ValueError):
            Halfspace(PicClass(4, (1, 1, 0, 0, 0)))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConePolytope(n=4, halfspaces=(Halfspace(basis_vector(5, 5)),))

    @pytest.mark.parametrize("normal", [(1, -1), [0, 1, -1], None], ids=["tuple", "list", "None"])
    def test_halfspace_refuses_a_normal_that_is_no_class(self, normal):
        with pytest.raises(ValueError, match="halfspace normal must be a PicClass"):
            Halfspace(normal)

    @pytest.mark.parametrize(
        "item", [basis_vector(9, 1), (0, 1, -1), None], ids=["PicClass", "tuple", "None"]
    )
    def test_cone_refuses_an_item_that_is_no_halfspace(self, item):
        with pytest.raises(ValueError, match="Halfspace items only"):
            ConePolytope(9, (Halfspace(basis_vector(9, 9)), item))

    def test_cone_coerces_a_list_of_halfspaces_to_a_tuple(self):
        walls = [Halfspace(u) for u in build_P(5).all_normals]
        P = ConePolytope(5, walls)
        assert type(P.halfspaces) is tuple
        assert P == build_P(5)
        assert hash(P) == hash(build_P(5))

    @pytest.mark.parametrize("name", ["P_tilde", "P", "P_minus"])
    def test_builders_match_the_public_constructors(self, name):
        # the builders skip the public checks; over each builder's window
        # every halfspace and the cone are what the checked path builds
        build, window = ANGLE_WINDOWS[name]
        for n in window:
            P = build(n)
            walls = tuple(Halfspace(u) for u in P.all_normals)
            assert P.halfspaces == walls
            assert P == ConePolytope(n, walls)


class TestMembership:
    def test_line_class_inside_everything(self):
        e0 = basis_vector(10, 0)
        for P in (build_P_tilde(10), build_P(10), build_P_minus(10)):
            assert membership(P, e0)

    def test_reports_first_violated_normal(self):
        P = build_P(5)
        res = membership(P, PicClass(5, (1, 0, -1, 0, 0, 0)))
        assert not res
        assert res.violated.coords == (0, 1, -1, 0, 0, 0)

    def test_unsorted_vector_outside_sorted_cone(self):
        assert not membership(build_P_tilde(5), PicClass(5, (9, 0, -1, 0, 0, 0)))
        assert membership(build_P_tilde(5), PicClass(5, (9, -1, 0, 0, 0, 0)))

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            membership(build_P(5), basis_vector(6, 0))


class TestAngles:
    def test_orthogonal(self):
        u = PicClass(5, (0, 1, -1, 0, 0, 0))
        v = PicClass(5, (0, 0, 0, 1, -1, 0))
        ang = classify_angle(u, v)
        assert ang.kind == PI_OVER and ang.m == 2 and ang.sign == 0

    def test_pi_over_three(self):
        u = PicClass(5, (0, 1, -1, 0, 0, 0))
        v = PicClass(5, (0, 0, 1, -1, 0, 0))
        ang = classify_angle(u, v)
        assert ang.kind == PI_OVER and ang.m == 3
        assert ang.cos2 == Fraction(1, 4) and ang.sign == 1

    def test_pi_over_four(self):
        u = PicClass(9, (0, 0, 0, 0, 0, 0, 0, 0, 1, -1))
        v = basis_vector(9, 9)
        ang = classify_angle(u, v)
        assert ang.kind == PI_OVER and ang.m == 4
        assert ang.cos2 == Fraction(1, 2)

    def test_pi_over_six(self):
        # squares -2 and -6, product 3: cos^2 = 9/12 = 3/4
        u = PicClass(3, (0, 1, -1, 0))
        v = PicClass(3, (0, -1, 2, 1))
        assert pairing(u, u) == -2 and pairing(v, v) == -6
        assert pairing(u, v) == 3
        ang = classify_angle(u, v)
        assert ang.kind == PI_OVER and ang.m == 6
        assert ang.cos2 == Fraction(3, 4)

    def test_zero_angle(self):
        # e_10 against -K at n = 10: parallel at the boundary
        ang = classify_angle(basis_vector(10, 10), anticanonical_class(10))
        assert ang.kind == ZERO_ANGLE and ang.cos2 == 1 and ang.sign == 1

    def test_divergent(self):
        u = PicClass(3, (0, 1, 0, 0) )
        v = PicClass(3, (1, 3, 0, 0))
        assert pairing(u, u) < 0 and pairing(v, v) < 0
        ang = classify_angle(u, v)
        assert ang.kind == DIVERGENT and ang.cos2 > 1

    def test_non_submultiple(self):
        # e_12 against -K at n = 12: cos^2 = 1/3
        ang = classify_angle(basis_vector(12, 12), anticanonical_class(12))
        assert ang.kind == NON_SUBMULTIPLE and ang.cos2 == Fraction(1, 3)

    def test_anti_parallel_normals_meet_at_zero_angle(self):
        # opposite halfspaces: p = -u.u > 0 since squares are negative
        u = PicClass(3, (0, 1, -1, 0))
        ang = classify_angle(u, -u)
        assert ang.cos2 == 1 and ang.sign == 1
        assert ang.kind == ZERO_ANGLE

    def test_repeated_normal_is_not_a_zero_angle(self):
        # same wall twice: p = u.u < 0, so cos2 = 1 lands outside ZERO_ANGLE
        u = PicClass(3, (0, 1, -1, 0))
        ang = classify_angle(u, u)
        assert ang.cos2 == 1 and ang.sign == -1
        assert ang.kind == NON_SUBMULTIPLE

    def test_requires_negative_squares(self):
        with pytest.raises(ValueError):
            classify_angle(basis_vector(3, 0), basis_vector(3, 1))

    @given(st.integers(0, 9), st.integers(0, 9))
    def test_symmetric_on_sorted_cone_normals(self, i, j):
        normals = build_P(9).all_normals
        a = classify_angle(normals[i], normals[j])
        b = classify_angle(normals[j], normals[i])
        assert (a.kind, a.cos2, a.sign, a.m) == (b.kind, b.cos2, b.sign, b.m)


class TestCartan:
    def test_diagonal_is_two(self):
        for row_i, row in enumerate(cartan_matrix(build_P(6))):
            assert render_cartan_entry(row[row_i]) == "2"

    def test_symmetric_for_equal_norm_normals(self):
        m = cartan_matrix(build_P_tilde(8))
        size = len(m)
        for i in range(size):
            for j in range(size):
                assert m[i][j] == m[j][i]

    def test_gram_consistency(self):
        P = build_P(9)
        g = gram_matrix(P)
        m = cartan_matrix(P)
        normals = P.all_normals
        for i, u in enumerate(normals):
            for j, v in enumerate(normals):
                # cos2 must equal g_ij^2 / (g_ii g_jj), sign must match g_ij
                entry = m[i][j]
                assert entry.cos2 == Fraction(g[i][j] ** 2, g[i][i] * g[j][j])
                assert (entry.sign > 0) == (g[i][j] > 0)

    def test_rendering(self):
        assert render_cartan_entry(CartanEntry(sign=0, cos2=Fraction(0))) == "0"
        assert render_cartan_entry(CartanEntry(sign=-1, cos2=Fraction(1))) == "2"
        assert render_cartan_entry(CartanEntry(sign=1, cos2=Fraction(1, 4))) == "-1"
        assert render_cartan_entry(CartanEntry(sign=1, cos2=Fraction(1, 2))) == "-sqrt(2)"
        assert render_cartan_entry(CartanEntry(sign=1, cos2=Fraction(1))) == "-2"
        assert render_cartan_entry(CartanEntry(sign=1, cos2=Fraction(1, 3))) == "-2/sqrt(3)"
        assert render_cartan_entry(CartanEntry(sign=-1, cos2=Fraction(9, 4))) == "3"
        assert render_cartan_entry(CartanEntry(sign=1, cos2=Fraction(9, 2))) == "-sqrt(18)"
        assert render_cartan_entry(CartanEntry(sign=1, cos2=Fraction(2, 3))) == "-sqrt(8/3)"
        assert render_cartan_entry(CartanEntry(sign=-1, cos2=Fraction(4, 9))) == "4/3"

    def test_p9_has_single_sqrt2_pair(self):
        tokens = [
            [render_cartan_entry(e) for e in row]
            for row in cartan_matrix(build_P(9))
        ]
        flat = [t for row in tokens for t in row]
        assert flat.count("-sqrt(2)") == 2  # (8,9) and (9,8)
        assert set(flat) == {"2", "0", "-1", "-sqrt(2)"}

    def test_sorted_cone_is_integer_cartan(self):
        for n in (9, 11, 13):
            tokens = {
                render_cartan_entry(e)
                for row in cartan_matrix(build_P_tilde(n))
                for e in row
            }
            assert tokens <= {"2", "0", "-1"}


class TestCoxeter:
    def test_sorted_cone_always_coxeter(self):
        for n in (5, 9, 12):
            assert is_coxeter(build_P_tilde(n))

    def test_truncated_cone_coxeter_at_nine(self):
        assert is_coxeter(build_P(9))

    def test_minus_k_classification(self):
        for n in range(10, 18):
            chk = is_coxeter(build_P_minus(n))
            assert chk.is_coxeter == (n in (10, 11, 13))
            if not chk:
                pairs = {(i, j): a for i, j, a in chk.offending}
                ang = pairs[(n, n + 1)]
                assert ang.cos2 == Fraction(1, n - 9)

    def test_offending_empty_when_coxeter(self):
        assert is_coxeter(build_P(9)).offending == ()


class TestDiagrams:
    def test_p9_shape(self):
        dia = coxeter_diagram(build_P(9))
        edges = {(e.i, e.j, e.style, e.multiplicity) for e in dia.edges}
        expected = {(0, 3, EDGE_PLAIN, 1), (8, 9, EDGE_PLAIN, 2)} | {
            (i, i + 1, EDGE_PLAIN, 1) for i in range(1, 8)
        }
        assert edges == expected

    def test_p9_isomorphic_to_expected_tree(self):
        dia = coxeter_diagram(build_P(9))
        mine = tree_canonical_form(
            list(range(10)), [(e.i, e.j, e.multiplicity) for e in dia.edges]
        )
        # the same tree with nodes named differently
        chain = [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "e", 1),
                 ("e", "f", 1), ("f", "g", 1), ("g", "h", 1), ("c", "x", 1),
                 ("h", "y", 2)]
        nodes = ["a", "b", "c", "d", "e", "f", "g", "h", "x", "y"]
        assert mine == tree_canonical_form(nodes, chain)

    def test_p_minus_10_has_dashed_edge(self):
        dia = coxeter_diagram(build_P_minus(10))
        dashed = [(e.i, e.j) for e in dia.edges if e.style == EDGE_DASHED]
        assert dashed == [(10, 11)]

    def test_p_minus_13_terminal_single_edge(self):
        dia = coxeter_diagram(build_P_minus(13))
        terminal = [e for e in dia.edges if (e.i, e.j) == (13, 14)]
        assert len(terminal) == 1
        assert terminal[0].m == 3 and terminal[0].multiplicity == 1
        double = [e for e in dia.edges if e.multiplicity == 2]
        assert [(e.i, e.j) for e in double] == [(12, 13)]

    def test_non_coxeter_diagram_raises(self):
        message = "diagram undefined: non-submultiple angles at (12,13) cos2=1/3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            coxeter_diagram(build_P_minus(12))

    def test_dot_output(self):
        dot = coxeter_diagram(build_P_minus(10)).to_dot()
        assert dot.startswith("graph coxeter {")
        assert dot.rstrip().endswith("}")
        assert "style=dashed" in dot
        assert dot.count("v9 -- v10;") == 2  # the double edge, drawn twice

    def test_ascii_output(self):
        text = coxeter_diagram(build_P(9)).to_ascii()
        assert "v8 == v9" in text
        assert "(pi/4)" in text
        assert "v0 -- v3" in text

    def test_ascii_dotted_edge(self):
        dia = CoxeterDiagram(("v0", "v1"), (DiagramEdge(0, 1, EDGE_DOTTED, None),))
        assert dia.to_ascii() == "nodes: v0 v1\nv0 .. v1  (divergent)"

    def test_ascii_without_edges(self):
        assert CoxeterDiagram(("v0", "v1"), ()).to_ascii() == "nodes: v0 v1\n(no edges)"


def toy_quadrant():
    # rank-1 lattice (n = 1): inequalities x_1 <= 0 (normal e_1, square -1)
    # and x_0 >= 2x_1 (normal (1, 2), square -3), a quadrant up to a
    # linear change of coordinates
    return ConePolytope(
        n=1,
        halfspaces=(Halfspace(basis_vector(1, 1)), Halfspace(PicClass(1, (1, 2)))),
    )


class TestExtremalRays:
    def test_toy_quadrant(self):
        rays = extremal_rays(toy_quadrant())
        assert [r.generator.coords for r in rays] == [(-2, -1), (1, 0)]
        assert [r.active_set for r in rays] == [(1,), (0,)]

    def test_sorted_cone_not_pointed(self):
        # it contains the line spanned by K
        with pytest.raises(ValueError, match="not pointed"):
            extremal_rays(build_P_tilde(9))

    def test_p9_rays(self):
        rays = extremal_rays(build_P(9))
        coords = [r.generator.coords for r in rays]
        assert coords == P9_RAYS

    def test_p9_against_brute_force(self):
        P = build_P(9)
        mine = {r.generator.coords for r in extremal_rays(P)}
        assert mine == brute_force_rays(minkowski_rows(P))

    def test_p_minus_10_against_brute_force(self):
        P = build_P_minus(10)
        mine = {r.generator.coords for r in extremal_rays(P)}
        assert mine == brute_force_rays(minkowski_rows(P))

    # two normals of negative square past P_minus(10), so that two rows
    # cut a pointed cone: from a seeded search, cases on which the double
    # description rejects pairs both for too few common zeros and for a
    # third ray that vanishes wherever the pair does
    CUTS = [
        ((0, 0, -1, 0, 1, 1, 0, -1, -1, 1, 0), (0, -1, 0, -1, 1, 0, 1, 1, 0, -1, -1)),
        ((1, -1, 0, -1, 0, -1, -1, 0, 0, 1, 0), (0, -1, -1, 1, 1, 1, -1, -1, -1, -1, -1)),
    ]

    @pytest.mark.parametrize("cuts", CUTS)
    def test_two_cutting_rows_against_brute_force(self, cuts):
        P = build_P_minus(10)
        P = ConePolytope(10, P.halfspaces + tuple(Halfspace(PicClass(10, u)) for u in cuts))
        rows = minkowski_rows(P)
        assert len(rows) >= 11 + 2
        mine = {r.generator.coords for r in extremal_rays(P)}
        assert mine == brute_force_rays(rows)

    def test_active_sets_have_full_rank(self):
        for r in extremal_rays(build_P(9)):
            assert len(r.active_set) >= 9

    def test_active_set_indices_really_vanish(self):
        P = build_P_minus(11)
        normals = P.all_normals
        for r in extremal_rays(P):
            for i, u in enumerate(normals):
                vanishes = pairing(u, r.generator) == 0
                assert (i in r.active_set) == vanishes

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_active_sets_are_the_zero_sets(self, data):
        # a cone from 3..8 small random normals of negative square in rank
        # 3..5, each turned to be >= 0 on a drawn nonzero point, so that
        # the cone is rarely {0}; its rays come from the double description
        n = data.draw(st.integers(2, 4))
        vector = st.tuples(*[st.integers(-3, 3)] * (n + 1)).map(lambda c: PicClass(n, c))
        inside = data.draw(vector.filter(lambda v: not v.is_zero()))
        normals = data.draw(
            st.lists(vector.filter(lambda u: pairing(u, u) < 0), min_size=n + 1, max_size=n + 4)
        )
        normals = [u if pairing(u, inside) >= 0 else -u for u in normals]
        P = ConePolytope(n, tuple(Halfspace(u) for u in normals))
        try:
            rays = extremal_rays(P)
        except ValueError:  # not pointed
            assume(False)

        def zero_set(coords):
            v = PicClass(n, coords)
            return tuple(i for i, u in enumerate(normals) if pairing(u, v) == 0)

        got = {r.generator.coords: r.active_set for r in rays}
        assert all(active == zero_set(coords) for coords, active in got.items())
        if len(normals) <= 6:  # the oracle solves one kernel per subset of rows
            assert got == {ray: zero_set(ray) for ray in brute_force_rays(minkowski_rows(P))}

    def test_boundary_rays_p9(self):
        bnd = sorted(r.generator.coords for r in boundary_rays(build_P(9)))
        assert bnd == P9_BOUNDARY_RAYS

    def test_every_ray_satisfies_every_inequality(self):
        P = build_P_minus(12)
        for r in extremal_rays(P):
            assert membership(P, r.generator)

    def test_finite_volume(self):
        assert finite_volume(build_P(9))
        assert not finite_volume(build_P(10))
        assert finite_volume(build_P_minus(10))
        assert finite_volume(build_P_minus(12))

    def test_p10_escaping_ray(self):
        negatives = [
            r.generator.coords
            for r in extremal_rays(build_P(10))
            if pairing(r.generator, r.generator) < 0
        ]
        assert negatives == P10_ESCAPING_RAYS


class TestSparseKernel:
    """The double description pairs each row over its nonzero entries only."""

    # rows with 0, 1, 2, 4 and n + 1 nonzero entries: the zero class, e_n,
    # e_i - e_{i+1}, e_0 - e_1 - e_2 - e_3 and -K
    @pytest.mark.parametrize("n", [9, 10])
    def test_named_rows_against_minkowski(self, n):
        vs = [basis_vector(n, k).coords for k in range(n + 1)]
        vs += [tuple(range(-3, n - 2)), tuple((-2) ** k for k in range(n + 1))]
        rows = [
            PicClass(n, (0,) * (n + 1)),
            basis_vector(n, n),
            basis_vector(n, 3) - basis_vector(n, 4),
            basis_vector(n, 0) - basis_vector(n, 1) - basis_vector(n, 2) - basis_vector(n, 3),
            anticanonical_class(n),
        ]
        assert sorted(sum(map(bool, u.coords)) for u in rows) == [0, 1, 2, 4, n + 1]
        for u in rows:
            assert _dots(_minkowski_row(u), vs) == [minkowski(u.coords, v) for v in vs]
            assert _dots(_minkowski_row(u), []) == []

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_supports_against_minkowski(self, data):
        n = data.draw(st.integers(3, 12))
        size = data.draw(st.sampled_from([0, 1, 2, 4, n + 1]))
        support = data.draw(st.permutations(range(n + 1)))[:size]
        nonzero = st.integers(1, 50) | st.integers(-50, -1)
        coords = [0] * (n + 1)
        for k in support:
            coords[k] = data.draw(nonzero)
        vector = st.tuples(*[st.integers(-10**20, 10**20)] * (n + 1))
        vs = data.draw(st.lists(vector, max_size=5))
        row = _minkowski_row(PicClass(n, tuple(coords)))
        assert _dots(row, vs) == [minkowski(coords, v) for v in vs]

    @pytest.mark.parametrize(
        "P", [build_P(9), build_P(10), build_P_tilde(9), build_P_tilde(10), build_P_minus(10)],
        ids=["P9", "P10", "P_tilde9", "P_tilde10", "P_minus10"],
    )
    def test_implied_special_classes_against_brute_force(self, P):
        # the zero class is the empty-support row: implied by any cone
        n = P.n
        zero = PicClass(n, (0,) * (n + 1))
        for u in (zero, basis_vector(n, 0), anticanonical_class(n)):
            assert is_implied(P, u) == brute_force_implied(u, P.all_normals)
        assert is_implied(P, zero)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sparse_normals_against_brute_force(self, data):
        # at most 6 normals of 1..3 nonzero entries in rank 3..6, each
        # turned to be >= 0 on a drawn point, as in
        # test_active_sets_are_the_zero_sets
        n = data.draw(st.integers(2, 5))

        def sparse(entries):
            coords = [0] * (n + 1)
            for k, c in entries:
                coords[k] = c
            return PicClass(n, tuple(coords))

        entry = st.tuples(st.integers(0, n), st.sampled_from([-3, -2, -1, 1, 2, 3]))
        normal = (
            st.lists(entry, min_size=1, max_size=3, unique_by=lambda e: e[0])
            .map(sparse)
            .filter(lambda u: pairing(u, u) < 0)
        )
        normals = data.draw(st.lists(normal, min_size=n + 1, max_size=6))
        inside = data.draw(
            st.tuples(*[st.integers(-3, 3)] * (n + 1)).filter(any).map(lambda c: PicClass(n, c))
        )
        normals = [u if pairing(u, inside) >= 0 else -u for u in normals]
        P = ConePolytope(n, tuple(Halfspace(u) for u in normals))
        try:
            rays = extremal_rays(P)
        except ValueError:  # not pointed
            assume(False)
        got = {r.generator.coords: r.active_set for r in rays}
        assert [r.generator.coords for r in rays] == sorted(got)
        assert got == {
            ray: tuple(i for i, u in enumerate(normals) if minkowski(u.coords, ray) == 0)
            for ray in brute_force_rays(minkowski_rows(P))
        }


class TestGramKernel:
    """gram_matrix and the Cartan signs pair each normal through the same
    sparse rows as the double description, on normals of 1, 2, 3 and
    n + 1 nonzero entries (the named cones have none of 3 entries)."""

    @staticmethod
    def assert_matches_minkowski(P):
        coords = [u.coords for u in P.all_normals]
        gram, cartan = gram_matrix(P), cartan_matrix(P)
        assert gram == tuple(tuple(minkowski(a, b) for b in coords) for a in coords)
        for i, a in enumerate(coords):
            for j, b in enumerate(coords):
                p = minkowski(a, b)
                assert cartan[i][j].sign == (p > 0) - (p < 0)
                assert cartan[i][j].cos2 == Fraction(p * p, minkowski(a, a) * minkowski(b, b))

    @pytest.mark.parametrize("n", [3, 9, 10, 20])
    def test_hand_built_cone_against_minkowski(self, n):
        e = [basis_vector(n, k) for k in range(n + 1)]
        normals = [
            e[n],
            e[1] - e[2],
            e[0] - e[1] - e[2],
            e[1] + e[2] + e[3],
            PicClass(n, (1,) * (n + 1)),
            PicClass(n, tuple((-2) ** (k % 3) for k in range(n + 1))),
        ]
        assert [sum(map(bool, u.coords)) for u in normals] == [1, 2, 3, 3, n + 1, n + 1]
        self.assert_matches_minkowski(ConePolytope(n, tuple(Halfspace(u) for u in normals)))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_supports_against_minkowski(self, data):
        n = data.draw(st.integers(3, 12))
        normals = []
        for _ in range(data.draw(st.integers(1, 8))):
            size = data.draw(st.sampled_from([1, 2, 3, n + 1]))
            coords = [0] * (n + 1)
            for k in data.draw(st.permutations(range(n + 1)))[:size]:
                coords[k] = data.draw(st.integers(1, 9) | st.integers(-9, -1))
            u = PicClass(n, tuple(coords))
            if pairing(u, u) < 0:
                normals.append(u)
        assume(normals)
        self.assert_matches_minkowski(ConePolytope(n, tuple(Halfspace(u) for u in normals)))


class TestMinimality:
    def test_p9_has_no_redundant_facets(self):
        assert redundant_constraints(build_P(9)) == ()

    def test_p_minus_has_no_redundant_facets(self):
        assert redundant_constraints(build_P_minus(10)) == ()
        assert redundant_constraints(build_P_minus(12)) == ()

    def test_sorted_cone_minimal(self):
        assert redundant_constraints(build_P_tilde(6)) == ()

    def test_a_sum_of_two_normals_is_redundant(self):
        normals = build_P(9).all_normals
        extra = PicClass(9, (0, 1, 0, -1) + (0,) * 6)  # e_1 - e_3
        assert extra == normals[1] + normals[2]
        P = ConePolytope(9, tuple(Halfspace(u) for u in normals + (extra,)))
        found = redundant_constraints(P)
        assert found == (10,)
        assert found == tuple(
            i for i, u in enumerate(P.all_normals)
            if brute_force_implied(u, P.all_normals[:i] + P.all_normals[i + 1:])
        )

    def test_a_repeated_normal_is_redundant_twice(self):
        P = build_P(9)
        P = ConePolytope(9, P.halfspaces + (P.halfspaces[4],))
        found = redundant_constraints(P)
        assert found == (4, 10)
        assert found == tuple(
            i for i, u in enumerate(P.all_normals)
            if brute_force_implied(u, P.all_normals[:i] + P.all_normals[i + 1:])
        )

    def test_minus_k_cut_implied_at_nine(self):
        # at n = 9 the -K inequality follows from P_9's facets, which is
        # exactly why the 9-point cone is not further truncated
        assert is_implied(build_P(9), anticanonical_class(9))

    def test_minus_k_cut_not_implied_at_ten(self):
        assert not is_implied(build_P(10), anticanonical_class(10))

    def test_truncation_not_implied(self):
        assert not is_implied(build_P_tilde(9), basis_vector(9, 9))

    def test_dropping_any_p9_facet_unpoints_the_cone(self):
        # P_9 is simplicial: 10 facets in a 10-dimensional space, so any
        # 9 of them leave a line inside the cone
        P = build_P(9)
        for drop in range(len(P.halfspaces)):
            kept = tuple(h for i, h in enumerate(P.halfspaces) if i != drop)
            with pytest.raises(ValueError, match="not pointed"):
                extremal_rays(ConePolytope(n=9, halfspaces=kept))

    def test_dropping_any_p_minus_10_facet_changes_the_cone(self):
        P = build_P_minus(10)
        baseline = {r.generator.coords for r in extremal_rays(P)}
        for drop in range(len(P.halfspaces)):
            kept = tuple(h for i, h in enumerate(P.halfspaces) if i != drop)
            Q = ConePolytope(n=10, halfspaces=kept)
            try:
                rays = {r.generator.coords for r in extremal_rays(Q)}
            except ValueError:
                continue  # dropping the facet unpoints the cone: changed
            assert rays != baseline

    def test_implied_detects_positive_combinations(self):
        P = build_P(9)
        u = P.halfspaces[0].normal + 2 * P.halfspaces[1].normal
        assert is_implied(P, u)

    def test_implied_rejects_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            is_implied(build_P(9), basis_vector(10, 1))


def drop_facet(P, i):
    return ConePolytope(n=P.n, halfspaces=P.halfspaces[:i] + P.halfspaces[i + 1 :])


class TestFarkasAgainstOracle:
    """is_implied against the sympy subset scan in tests/oracles.py."""

    @pytest.mark.parametrize(
        "P",
        [build_P(9), build_P_tilde(7), build_P_minus(10)],
        ids=["P9", "P_tilde7", "P_minus10"],
    )
    def test_single_facet_drops(self, P):
        for i, h in enumerate(P.halfspaces):
            rest = drop_facet(P, i)
            assert is_implied(rest, h.normal) == brute_force_implied(
                h.normal, rest.all_normals
            )

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=12, max_size=12))
    def test_nonnegative_combinations_are_implied(self, coeffs):
        P = build_P_minus(10)
        u = PicClass(10, (0,) * 11)
        for k, h in zip(coeffs, P.halfspaces):
            u = u + k * h.normal
        assert brute_force_implied(u, P.all_normals)
        assert is_implied(P, u)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(-2, 4), min_size=12, max_size=12))
    def test_signed_combinations_agree(self, coeffs):
        P = build_P_minus(10)
        u = PicClass(10, (0,) * 11)
        for k, h in zip(coeffs, P.halfspaces):
            u = u + k * h.normal
        assert is_implied(P, u) == brute_force_implied(u, P.all_normals)

    @pytest.mark.parametrize(
        "P, u, verdict",
        [
            (build_P(9), anticanonical_class(9), True),
            (build_P(10), anticanonical_class(10), False),
            (build_P_tilde(9), basis_vector(9, 9), False),
        ],
        ids=["minus_k_at_9", "minus_k_at_10", "truncation"],
    )
    def test_pinned_verdicts(self, P, u, verdict):
        assert brute_force_implied(u, P.all_normals) is verdict
        assert is_implied(P, u) is verdict


class TestSpanTest:
    """is_implied with fewer normals than coordinates: the sparse span
    test before any double description."""

    @pytest.fixture
    def no_double_description(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the double description ran")

        monkeypatch.setattr(polytopes, "_generators", refuse)

    @pytest.mark.parametrize(
        "build, n",
        [(build_P, n) for n in range(9, 13)] + [(build_P_tilde, n) for n in range(5, 10)],
        ids=[f"P{n}" for n in range(9, 13)] + [f"P_tilde{n}" for n in range(5, 10)],
    )
    def test_facets_are_settled_by_the_span(self, no_double_description, build, n):
        P = build(n)
        assert len(P.halfspaces) <= n + 1
        for i, h in enumerate(P.halfspaces):
            assert not is_implied(drop_facet(P, i), h.normal)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sparse_rows_against_brute_force(self, data):
        # at most n normals of 1..3 nonzero entries in rank n + 1 = 3..6,
        # some of them sums of others (dependent rows), and a normal
        # drawn either as a signed combination of them (inside their
        # span) or freely (mostly outside)
        n = data.draw(st.integers(2, 5))

        def sparse(entries):
            coords = [0] * (n + 1)
            for k, c in entries:
                coords[k] = c
            return PicClass(n, tuple(coords))

        entry = st.tuples(st.integers(0, n), st.sampled_from([-3, -2, -1, 1, 2, 3]))
        normal = (
            st.lists(entry, min_size=1, max_size=3, unique_by=lambda e: e[0])
            .map(sparse)
            .filter(lambda u: pairing(u, u) < 0)
        )
        normals = data.draw(st.lists(normal, min_size=1, max_size=n))
        for a, b in data.draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=2)):
            if len(normals) < n and a < len(normals) and b < len(normals):
                u = normals[a] + normals[b]
                if pairing(u, u) < 0:
                    normals.append(u)
        if data.draw(st.booleans()):
            coeffs = data.draw(st.lists(st.integers(-2, 3), min_size=len(normals), max_size=len(normals)))
            target = PicClass(n, (0,) * (n + 1))
            for c, u in zip(coeffs, normals):
                target = target + c * u
        else:
            target = sparse(data.draw(st.lists(entry, max_size=n + 1, unique_by=lambda e: e[0])))
        P = ConePolytope(n, tuple(Halfspace(u) for u in normals))
        rows = [_minkowski_row(u) for u in normals]
        inside = sympy_rank([u.coords for u in normals] + [target.coords]) == sympy_rank(
            [u.coords for u in normals]
        )
        assert polytopes._in_span(rows, _minkowski_row(target)) is inside
        assert is_implied(P, target) == brute_force_implied(target, normals)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_span_of_huge_entries(self, data):
        # entries up to 10**20: the eliminated rows stay exact
        n = data.draw(st.integers(3, 8))
        big = st.integers(-10**20, 10**20)
        rows = data.draw(st.lists(st.tuples(*[big] * (n + 1)), min_size=1, max_size=n))
        coeffs = data.draw(st.lists(big, min_size=len(rows), max_size=len(rows)))
        inside = tuple(sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(n + 1))
        free = data.draw(st.tuples(*[big] * (n + 1)))
        sparse_rows = [[(k, x) for k, x in enumerate(r) if x] for r in rows]
        assert polytopes._in_span(sparse_rows, [(k, x) for k, x in enumerate(inside) if x])
        assert polytopes._in_span(sparse_rows, [(k, x) for k, x in enumerate(free) if x]) is (
            sympy_rank(rows + [free]) == sympy_rank(rows)
        )


class TestVertexFamilies:
    def test_family_counts(self):
        for n in (10, 12, 14):
            fams = vertex_formula_families(n)
            total = sum(len(v) for v in fams.values())
            assert total == 9 * n - 71
            assert len(fams["cubic"]) == 7
            assert len(fams["triple"]) == n - 9
            assert len(fams["double_tail"]) == n - 9
            assert len(fams["quadruple_tail"]) == n - 9
            assert len(fams["two_block"]) == 6 * (n - 9)

    def test_families_are_distinct(self):
        fams = vertex_formula_families(13)
        seen = [v.coords for vs in fams.values() for v in vs]
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_formulas_match_enumeration(self, n):
        rep = verify_vertex_formulas(n)
        assert rep.ok()
        assert rep.expected_count == 9 * n - 71
        assert len(rep.computed_rays) == rep.expected_count

    @pytest.mark.parametrize("n", range(15, 31))
    def test_rays_are_the_families_beyond_the_window(self, n):
        rays = {r.generator.coords for r in extremal_rays(build_P_minus(n))}
        families = {v.coords for vs in vertex_formula_families(n).values() for v in vs}
        assert rays == families
        assert len(rays) == 9 * n - 71

    @pytest.mark.parametrize("n", [15, 30, 100])
    def test_window_reaches_one_hundred(self, n):
        rep = verify_vertex_formulas(n)
        assert rep.ok()
        assert len(rep.computed_rays) == 9 * n - 71

    def test_out_of_window_rejected(self):
        with pytest.raises(ValueError):
            verify_vertex_formulas(9)
        with pytest.raises(ValueError):
            verify_vertex_formulas(101)


class TestRegionR:
    def test_needs_ten_points(self):
        with pytest.raises(ValueError):
            verify_region_R(9)

    def test_ten_triples(self):
        rep = verify_region_R(10)
        assert len(rep.rows) == 10
        assert all(len(r.point) == 3 for r in rep.rows)

    def test_n10_vertex_set(self):
        rep = verify_region_R(10)
        vertices = {r.triple for r in rep.rows if r.is_vertex}
        assert vertices == {
            (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4),
            (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4),
        }

    def test_n12_loses_the_degenerate_vertices(self):
        rep = verify_region_R(12)
        vertices = {r.triple for r in rep.rows if r.is_vertex}
        assert (0, 1, 3) not in vertices and (0, 1, 4) not in vertices
        assert len(vertices) == 6

    def test_exact_f_values_n12(self):
        rep = verify_region_R(12)
        f = {r.triple: r.f_value for r in rep.rows if r.is_vertex}
        assert f[(0, 2, 4)] == Fraction(23, 27)
        assert f[(0, 3, 4)] == Fraction(7, 8)
        assert f[(1, 2, 4)] == Fraction(3, 4)
        assert f[(1, 3, 4)] == Fraction(9, 11)
        assert f[(1, 2, 3)] == 0
        assert f[(0, 2, 3)] == 1

    def test_triples_are_regular(self):
        # the planes' ten 3x3 determinants, by the rule of Sarrus; none
        # vanishes for n >= 10, so every triple of planes meets in a point
        def det3(m):
            (a, b, c), (d, e, f), (g, h, i) = m
            return a * e * i + b * f * g + c * d * h - c * e * g - b * d * i - a * f * h

        for n in range(10, 2000):
            planes = [coeffs for coeffs, _ in _region_constraints(n)]
            dets = [det3([planes[i] for i in t]) for t in itertools.combinations(range(5), 3)]
            assert dets == [3, -3, 3, 1, 3 - n, n - 4, -1, n, 1 - n, 1]
            assert 0 not in dets
        for n in (10, 11, 12, 50):
            assert all(r.point is not None for r in verify_region_R(n).rows)

    def test_summary_flags(self):
        for n in (10, 11, 12, 20):
            rep = verify_region_R(n)
            assert rep.ok()
            assert rep.max_f_at_vertices == 1


class TestReportsDeriveTheirVerdicts:
    """Each verdict of the two reports, recomputed here from the rows and
    rays alone, and the values the reports gave when they stored them."""

    @pytest.mark.parametrize("n", range(10, 31))
    def test_region_r(self, n):
        rep = verify_region_R(n)
        assert (rep.n, len(rep.rows)) == (n, 10)
        vertices = [r for r in rep.rows if r.is_vertex]
        assert all(r.point is not None for r in rep.rows)
        assert rep.vertex_count == len(vertices) == (8 if n == 10 else 6)
        assert rep.max_f_at_vertices == max(r.f_value for r in vertices) == 1
        assert rep.f_le_1_at_vertices is all(r.f_value <= 1 for r in vertices) is True
        below = [r.f_value < 1 for r in vertices if r.point[2] < 0]
        assert rep.f_lt_1_when_xn_negative is all(below) is True
        assert rep.ok() is True

    @pytest.mark.parametrize("n", range(10, 31))
    def test_vertex_formulas(self, n):
        rep = verify_vertex_formulas(n)
        formula = sorted({v.coords for vs in vertex_formula_families(n).values() for v in vs})
        computed = [r.generator.coords for r in extremal_rays(build_P_minus(n))]
        assert rep.n == n
        assert [v.coords for v in rep.formula_rays] == formula
        assert [v.coords for v in rep.computed_rays] == computed
        assert rep.expected_count == 9 * n - 71
        assert rep.count_ok is (len(formula) == 9 * n - 71 == len(computed)) is True
        assert rep.sets_equal is (set(formula) == set(computed)) is True
        assert rep.ok() is True

    def test_a_report_cannot_contradict_its_rows(self):
        rep = verify_region_R(12)
        row = next(r for r in rep.rows if r.is_vertex and r.point[2] < 0)
        high = RegionRRow(row.triple, row.point, True, Fraction(2))
        bad = RegionRReport(12, tuple(high if r is row else r for r in rep.rows))
        assert bad.max_f_at_vertices == 2
        assert not bad.f_le_1_at_vertices and not bad.f_lt_1_when_xn_negative
        assert not bad.ok()
        assert RegionRReport(12, ()).max_f_at_vertices is None
        rays = verify_vertex_formulas(10).computed_rays
        short = VertexFormulaReport(10, rays[1:], rays)
        assert not short.count_ok and not short.sets_equal and not short.ok()

    def test_a_report_with_no_vertex_fails(self):
        # f <= 1 holds at every vertex of a report that has none, and
        # proves nothing there
        rep = verify_region_R(12)
        assert rep.vertex_count == 6 and rep.ok()
        non_vertices = tuple(r for r in rep.rows if not r.is_vertex)
        for rows in ((), non_vertices):
            empty = RegionRReport(12, rows)
            assert empty.vertex_count == 0
            assert empty.f_le_1_at_vertices and empty.f_lt_1_when_xn_negative
            assert not empty.ok()


# ---------------------------------------------------------------------------
# the angle layer against the reference classification in oracles.py

ANGLE_WINDOWS = {
    "P_tilde": (build_P_tilde, range(3, 31)),
    "P": (build_P, range(3, 31)),
    "P_minus": (build_P_minus, range(10, 41)),
}


@pytest.mark.parametrize("name", sorted(ANGLE_WINDOWS))
def test_angle_layer_matches_reference(name):
    build, window = ANGLE_WINDOWS[name]
    verdicts = set()
    for n in window:
        P = build(n)
        ref = reference_angles([u.coords for u in P.all_normals])
        assert [list(row) for row in gram_matrix(P)] == ref["gram"]
        assert [[(e.sign, e.cos2) for e in row] for row in cartan_matrix(P)] == [
            [(sign, cos2) for _, cos2, sign, _ in row] for row in ref["angles"]
        ]
        check = is_coxeter(P)
        assert [
            (i, j, (a.kind, a.cos2, a.sign, a.m)) for i, j, a in check.offending
        ] == ref["offending"]
        assert bool(check) == (ref["edges"] is not None)
        if ref["edges"] is None:
            with pytest.raises(ValueError, match="diagram undefined"):
                coxeter_diagram(P)
        else:
            edges = coxeter_diagram(P).edges
            assert [(e.i, e.j, e.style, e.multiplicity, e.m) for e in edges] == ref["edges"]
        verdicts.add(bool(check))
    # P_minus is Coxeter only at n = 10, 11, 13: both branches are compared
    assert verdicts == ({True, False} if name == "P_minus" else {True})


# ---------------------------------------------------------------------------
# the angle pass, kept on each polytope object, and the ray generators
# built without re-validation


def angle_results(P):
    """P's Cartan matrix, Coxeter check and diagram (None if P is not Coxeter)."""
    check = is_coxeter(P)
    return cartan_matrix(P), check, coxeter_diagram(P) if check else None


class TestAngleMemo:
    @pytest.fixture
    def gram_calls(self, monkeypatch):
        calls = []
        gram_upper = polytopes._gram_upper

        def counted(normals):
            calls.append(normals)
            return gram_upper(normals)

        monkeypatch.setattr(polytopes, "_gram_upper", counted)
        return calls

    @pytest.mark.parametrize("n", [10, 12])
    def test_one_pass_per_polytope_object(self, gram_calls, n):
        P = build_P_minus(n)
        cartan_matrix(P)
        check = is_coxeter(P)
        if check:
            coxeter_diagram(P)
        else:
            with pytest.raises(ValueError, match="diagram undefined"):
                coxeter_diagram(P)
        assert len(gram_calls) == 1

    def test_an_equal_object_gets_its_own_pass(self, gram_calls):
        P, twin = build_P_minus(11), build_P_minus(11)
        assert P == twin and P is not twin
        want = angle_results(P)
        assert angle_results(twin) == want
        assert angle_results(P) == want
        assert len(gram_calls) == 2  # P keeps its pass across the twin's calls

    def test_interleaved_polytopes_match_fresh_objects(self):
        builds = {"A": lambda: build_P_minus(12), "B": lambda: build_P(9)}
        want = {name: angle_results(build()) for name, build in builds.items()}
        assert want["A"] != want["B"]
        made = {name: build() for name, build in builds.items()}
        for name in "ABA":
            assert angle_results(made[name]) == want[name]


class TestCoxeterRule:
    """is_coxeter decides from the angle classes alone, and coxeter_diagram
    refuses a non-Coxeter cone before it builds an edge."""

    @pytest.fixture
    def edges_built(self, monkeypatch):
        built = []
        init = DiagramEdge.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(DiagramEdge, "__init__", counted)
        return built

    @pytest.mark.parametrize("n", [13, 20])
    def test_is_coxeter_builds_no_edge(self, edges_built, n):
        assert bool(is_coxeter(build_P_minus(n))) == (n == 13)
        assert edges_built == []

    def test_diagram_raises_before_any_edge(self, edges_built):
        with pytest.raises(ValueError, match="diagram undefined"):
            coxeter_diagram(build_P_minus(12))
        assert edges_built == []


@pytest.mark.parametrize("name", sorted(ANGLE_WINDOWS))
def test_ray_generators_pass_the_public_constructor(name):
    build, window = ANGLE_WINDOWS[name]
    for n in window:
        P = build(n)
        if name == "P_tilde":  # it contains the line R.K at every n
            with pytest.raises(ValueError, match="not pointed"):
                extremal_rays(P)
            continue
        for r in extremal_rays(P):
            assert PicClass(P.n, r.generator.coords) == r.generator


# One pair per outcome the classification can reach, run by every
# hypothesis session as an explicit example.
ANGLE_EXAMPLES = {
    "divergent": ((0, 1, 0), (1, 2, 0)),
    "divergent with u.v > 0": ((0, 1, 0), (1, -2, 0)),
    "zero_angle": ((0, 1, 0), (0, -1, 0)),
    "cos2 = 1 with u.v < 0": ((0, 1, 0), (0, 2, 0)),
    "pi/3": ((0, 1, -1, 0), (0, 0, 1, -1)),
    "pi/4": ((0, 0, 1, -1), (0, 0, 0, 1)),
    "pi/6": ((0, 1, -1, 0), (0, -1, 2, 1)),
    "obtuse": ((0, 1, -1, 0), (0, 0, -1, 1)),
    "cos2 = 1/2 with u.v < 0": ((0, 0, 1, -1), (0, 0, 0, -1)),
    "cos2 = 3/4 with u.v < 0": ((0, 1, -1, 0), (0, 1, -2, -1)),
    "cos2 = 1/3": ((0, 1, 0, 0), (0, -1, 1, 1)),
    "square >= 0": ((1, 0, 0), (0, 1, 0)),
}


@pytest.mark.parametrize("label", sorted(ANGLE_EXAMPLES))
def test_angle_examples_reach_their_outcome(label):
    a, b = ANGLE_EXAMPLES[label]
    if label == "square >= 0":
        with pytest.raises(ValueError):
            reference_angle(a, b)
        return
    kind, cos2, sign, m = reference_angle(a, b)
    expected = {
        "divergent": kind == DIVERGENT and cos2 > 1 and sign < 0,
        "divergent with u.v > 0": kind == DIVERGENT and cos2 > 1 and sign > 0,
        "zero_angle": kind == ZERO_ANGLE and cos2 == 1 and sign > 0,
        "cos2 = 1 with u.v < 0": kind == NON_SUBMULTIPLE and cos2 == 1 and sign < 0,
        "pi/3": kind == PI_OVER and m == 3,
        "pi/4": kind == PI_OVER and m == 4,
        "pi/6": kind == PI_OVER and m == 6,
        "obtuse": kind == NON_SUBMULTIPLE and sign < 0 and cos2 == Fraction(1, 4),
        "cos2 = 1/2 with u.v < 0": kind == NON_SUBMULTIPLE and cos2 == Fraction(1, 2) and sign < 0,
        "cos2 = 3/4 with u.v < 0": kind == NON_SUBMULTIPLE and cos2 == Fraction(3, 4) and sign < 0,
        "cos2 = 1/3": kind == NON_SUBMULTIPLE and cos2 == Fraction(1, 3) and sign > 0,
    }
    assert expected[label]


@st.composite
def angle_pairs(draw):
    n = draw(st.integers(2, 6))
    vector = st.tuples(*[st.integers(-6, 6)] * (n + 1))
    a = draw(vector)
    if draw(st.booleans()):  # parallel normals: cos^2 = 1 of either sign
        k = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        return a, tuple(k * x for x in a)
    return a, draw(vector)


def _with_examples(test):
    for pair in ANGLE_EXAMPLES.values():
        test = example(pair)(test)
    return test


@_with_examples
@settings(max_examples=300, deadline=None)
@given(angle_pairs())
def test_classify_angle_matches_reference(pair):
    a, b = pair
    u, v = PicClass(len(a) - 1, a), PicClass(len(b) - 1, b)
    try:
        want = reference_angle(a, b)
    except ValueError:
        with pytest.raises(ValueError, match="negative square"):
            classify_angle(u, v)
        return
    got = classify_angle(u, v)
    assert (got.kind, got.cos2, got.sign, got.m) == want


# ---------------------------------------------------------------------------
# the derived kind and m against the values AngleClass used to store

ANGLE_KIND_CODES = {
    "3": (PI_OVER, 3),
    "4": (PI_OVER, 4),
    "6": (PI_OVER, 6),
    "z": (ZERO_ANGLE, None),
    "d": (DIVERGENT, None),
    "x": (NON_SUBMULTIPLE, None),
}
BUILDERS = {
    "P_tilde": build_P_tilde,
    "P": build_P,
    "P_minus": build_P_minus,
    "fundamental_cone": fundamental_cone,
}


def frozen_angle_kinds():
    """{(builder, n): {(i, j): (kind, m)}} of the pairs angle_kinds.txt lists."""
    table = {}
    for line in (Path(__file__).parent / "angle_kinds.txt").read_text().splitlines():
        if not line.startswith("#"):
            head, pairs = line.split(":", 1)
            name, n = head.split()
            table[name, int(n)] = {
                tuple(map(int, pair.split("-"))): ANGLE_KIND_CODES[code]
                for pair, _, code in (token.partition(":") for token in pairs.split())
            }
    return table


def test_derived_angle_fields_match_the_frozen_table():
    table = frozen_angle_kinds()
    assert len(table) == 3 * 28 + 21
    for (name, n), listed in table.items():
        for i, row in enumerate(cartan_matrix(BUILDERS[name](n))):
            for j, angle in enumerate(row[i:], i):
                default = (NON_SUBMULTIPLE, None) if i == j else (PI_OVER, 2)
                assert (angle.kind, angle.m) == listed.get((i, j), default), (name, n, i, j)
