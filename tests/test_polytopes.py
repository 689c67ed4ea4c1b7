"""Cone constructions, exact angles, Cartan/Coxeter data, extremal rays
(against the brute-force oracle), minimality audits, vertex families,
and the region-R table."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cremona.lattice import (
    PicClass,
    anticanonical_class,
    basis_vector,
    pairing,
)
from cremona.polytopes import (
    DIVERGENT,
    EDGE_DASHED,
    EDGE_PLAIN,
    NON_SUBMULTIPLE,
    PI_OVER,
    ZERO_ANGLE,
    CartanEntry,
    ConePolytope,
    Halfspace,
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
from oracles import brute_force_implied, brute_force_rays, tree_canonical_form


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
        expected = sorted(
            [(1,) + (0,) * 9, (1, -1) + (0,) * 8, (2, -1, -1) + (0,) * 7]
            + [(3,) + (-1,) * k + (0,) * (9 - k) for k in range(3, 10)]
        )
        assert coords == expected

    def test_p9_against_brute_force(self):
        P = build_P(9)
        mine = {r.generator.coords for r in extremal_rays(P)}
        assert mine == brute_force_rays(minkowski_rows(P))

    def test_p_minus_10_against_brute_force(self):
        P = build_P_minus(10)
        mine = {r.generator.coords for r in extremal_rays(P)}
        assert mine == brute_force_rays(minkowski_rows(P))

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

    def test_boundary_rays_p9(self):
        bnd = sorted(r.generator.coords for r in boundary_rays(build_P(9)))
        assert bnd == [(1, -1) + (0,) * 8, (3,) + (-1,) * 9]

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
        assert negatives == [(3,) + (-1,) * 10]


class TestMinimality:
    def test_p9_has_no_redundant_facets(self):
        assert redundant_constraints(build_P(9)) == ()

    def test_p_minus_has_no_redundant_facets(self):
        assert redundant_constraints(build_P_minus(10)) == ()
        assert redundant_constraints(build_P_minus(12)) == ()

    def test_sorted_cone_minimal(self):
        assert redundant_constraints(build_P_tilde(6)) == ()

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

    def test_out_of_window_rejected(self):
        with pytest.raises(ValueError):
            verify_vertex_formulas(9)
        with pytest.raises(ValueError):
            verify_vertex_formulas(15)


class TestRegionR:
    def test_needs_ten_points(self):
        with pytest.raises(ValueError):
            verify_region_R(9)

    def test_ten_triples(self):
        rep = verify_region_R(10)
        assert len(rep.rows) == 10
        assert rep.all_triples_meet

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

    def test_summary_flags(self):
        for n in (10, 11, 12, 20):
            rep = verify_region_R(n)
            assert rep.ok()
            assert rep.max_f_at_vertices == 1
