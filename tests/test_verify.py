"""The named check registry: determinism and the documented expected
failure."""

import hashlib
import json
import random
import zlib

import pytest

from cremona import curves, polytopes, verify, weyl
from cremona.cli import main
from cremona.curves import Decomposition, decompose_inequality
from cremona.lattice import PicClass, basis_vector
from cremona.nef import NefVerdict
from cremona.polytopes import CoxeterCheck, RegionRReport, RegionRRow
from cremona.verify import FAIL, PASS, XFAIL, check_names, run_suite
from cremona.weyl import Sigma, WeylWord


def run_check(monkeypatch, name, suite="paper"):
    """The row of ``name`` from a run of ``suite`` with that check alone."""
    monkeypatch.setattr(verify, "_CHECKS", [c for c in verify._CHECKS if c[0] == name])
    [result] = run_suite(suite).checks
    return result


def test_quick_suite_passes():
    report = run_suite(suite="quick")
    assert report.passed()
    assert all(c.status in (PASS, XFAIL) for c in report.checks)


def test_quick_is_a_subset_of_paper():
    quick = set(check_names("quick"))
    paper = set(check_names("paper"))
    assert quick < paper
    assert "vertex_formulas" in paper - quick


def test_triple_edge_check_is_xfail():
    report = run_suite(suite="quick")
    by_name = {c.name: c for c in report.checks}
    triple = by_name["diagram_p_minus_11_triple_edge"]
    assert triple.status == XFAIL
    assert "pi/4" in triple.claim
    # the xfail never fails the run
    assert report.passed()
    # and the companion check records the true diagram, green
    assert by_name["diagram_p_minus_11"].status == PASS


def test_deterministic_given_seed():
    a = run_suite(suite="quick", seed=5)
    b = run_suite(suite="quick", seed=5)
    assert a == b


def test_other_seeds_also_pass():
    assert run_suite(suite="quick", seed=12345).passed()


def test_registry_names_unique():
    names = check_names("paper")
    assert len(names) == len(set(names))


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite(suite="everything")


def test_check_names_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'everything'"):
        check_names("everything")
    assert len(check_names("quick")) == 14 and len(check_names("paper")) == 18


@pytest.mark.parametrize("suite", ["paper", "quick"])
def test_check_names_are_the_names_a_run_reports(suite):
    assert check_names(suite) == [c.name for c in run_suite(suite).checks]


def test_the_paper_suite_adds_the_four_slow_checks():
    assert set(check_names("paper")) - set(check_names("quick")) == {
        "vertex_formulas", "curve_counts", "decomposition", "cross_method"
    }


def test_a_check_states_its_name_claim_and_status_once(monkeypatch):
    # a declared check joins both suites (or the paper suite alone), in
    # declaration order; its body's ok decides pass, fail or xfail
    monkeypatch.setattr(verify, "_CHECKS", [])
    verify._check("passing", "claim p")(lambda: (True, "e", "c"))
    verify._check("failing", "claim f", quick=False)(lambda: (False, "e", "c"))
    verify._check("expected", "claim x", xfail=True)(lambda: (False, "e", "c"))
    assert check_names("quick") == ["passing", "expected"]
    assert run_suite("paper").checks == (
        verify.CheckResult("passing", PASS, "claim p", "e", "c"),
        verify.CheckResult("failing", FAIL, "claim f", "e", "c"),
        verify.CheckResult("expected", XFAIL, "claim x", "e", "c"),
    )


@pytest.mark.parametrize("suite, trials", [("paper", 30), ("quick", 1)])
def test_a_sampled_check_gets_its_own_stream_and_its_sample_size(monkeypatch, suite, trials):
    # the stream is seeded by the run's seed and the check's name, and the
    # quick suite cuts the declared size 20-fold, to no fewer than one
    monkeypatch.setattr(verify, "_CHECKS", [])
    for name in ("a", "b"):
        verify._check(name, "claim", trials=30)(
            lambda rng, trials: (True, str(trials), str(rng.random()))
        )
    assert [(c.expected, c.computed) for c in run_suite(suite, seed=7).checks] == [
        (str(trials), str(random.Random(7 ^ zlib.crc32(name)).random())) for name in (b"a", b"b")
    ]


# sha256 of the paper suite's checks as JSON, with decomposition's
# ``computed`` left out; frozen from the per-class decomposition check
# that ran before the check went to one class per orbit, and refrozen
# when cross_method added the classes that reach the curve scan (its row
# alone changed: claim, expected and computed); refrozen again when the
# claims of round_trip and cross_method came to name what
# check_certificate asks of a not-nef witness, beyond a negative pairing
# (the input itself or an effective class), which cross_method now asks
# of its curve-check verdicts too (only those two claims changed)
PAPER_SHA256 = "23518212c0ac6c65457c718bba8966170c17ce953e2d394fb2aec0158f8afe0f"

# the fields of a CheckResult, in order
FIELDS = ("name", "status", "claim", "expected", "computed")

PAPER_NAMES = [
    "cartan_p9",
    "cartan_sorted_cone",
    "rays_p9",
    "vertex_formulas",
    "p10_infinite_volume",
    "coxeter_classification",
    "diagram_p9",
    "diagram_p_minus_10",
    "diagram_p_minus_11_triple_edge",
    "diagram_p_minus_11",
    "diagram_p_minus_13",
    "region_r_table",
    "curve_counts",
    "decomposition",
    "group_action",
    "round_trip",
    "cross_method",
    "fundamental_cone",
]


def test_paper_suite_passes_unchanged():
    report = run_suite("paper")
    assert report.passed()
    assert [c.name for c in report.checks] == PAPER_NAMES
    by_name = {c.name: c for c in report.checks}
    # 125,653 is the count of (-1)-classes of degree 1..8 for n = 3..10
    assert by_name["decomposition"].computed == "51 orbits, 125653 classes decomposed"
    assert by_name["vertex_formulas"].computed.startswith("n=10: 19 rays")
    assert "n=14: 55 rays" in by_name["vertex_formulas"].computed
    assert by_name["cross_method"].computed == (
        "2000 classes, 1001 reach the curve scan, full agreement"
    )
    rows = [{field: getattr(c, field) for field in FIELDS} for c in report.checks]
    del rows[PAPER_NAMES.index("decomposition")]["computed"]
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PAPER_SHA256


# sha256 of the quick suite's checks as JSON, every field, and of the
# stdout of ``verify --suite quick``; frozen before the runner of the
# checks became one loop.  The quick suite's rows name no sampled value,
# so both seeds give the same rows (the failure paths below pin the
# random streams)
QUICK_SHA256 = "e36819d97c36d5ae57499323e8a63bbc59ef37e353b59a0db454295c04ca5058"
QUICK_STDOUT_SHA256 = "cc3fbe27bf6c50cc89a0b426c9307bde050201a22d15348de31a75cd36bd0b02"


@pytest.mark.parametrize("seed", [0, 123456])
def test_quick_suite_rows_are_unchanged(seed):
    rows = [{field: getattr(c, field) for field in FIELDS} for c in run_suite("quick", seed).checks]
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == QUICK_SHA256


def test_quick_suite_stdout_is_unchanged(capsys):
    assert main(["verify", "--suite", "quick"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == QUICK_STDOUT_SHA256


def test_paper_suite_computes_the_rays_of_each_cone_once(monkeypatch):
    # rays_p9, p10_infinite_volume and vertex_formulas at n = 10..14 each
    # derive their boundary, volume and family verdicts from one ray list
    cones = []
    real = polytopes.extremal_rays

    def counted(P):
        cones.append(P.all_normals)
        return real(P)

    monkeypatch.setattr(polytopes, "extremal_rays", counted)
    monkeypatch.setattr(verify, "extremal_rays", counted)
    assert run_suite("paper").passed()
    assert len(cones) == len(set(cones)) == 7


def test_decomposition_reports_a_failing_orbit(monkeypatch):
    def one_cubic_short(c):
        dec = decompose_inequality(c)
        return Decomposition(dec.cubics[1:], dec.conic)

    monkeypatch.setattr(verify, "decompose_inequality", one_cubic_short)
    result = run_check(monkeypatch, "decomposition")
    assert result.status == FAIL
    assert result.computed.startswith("51 orbits, 125653 classes decomposed; failures [")


def test_a_report_with_no_check_does_not_pass():
    assert not verify.VerificationReport(()).passed()
    check = verify.CheckResult("rays_p9", PASS, "a claim", "10 rays", "10 rays")
    assert verify.VerificationReport((check,)).passed()


def test_cross_method_fails_below_its_scan_floor(monkeypatch):
    # e_1 moved by a word has square -1, so curve_check would stop before
    # its scan; with both methods stubbed to agree (nef, so there is no
    # not-nef witness to certify), only the floor on the classes that
    # reach the scan can fail the check
    def agree(v, max_degree=None):
        return NefVerdict(WeylWord() if max_degree is None else None, max_degree)

    monkeypatch.setattr(verify, "_interior_point", lambda n, rng: basis_vector(n, 1))
    monkeypatch.setattr(verify, "is_nef_K_nonpositive", agree)
    monkeypatch.setattr(verify, "curve_check", agree)
    result = run_check(monkeypatch, "cross_method")
    assert result.status == FAIL
    scanned = int(result.computed.split(", ")[1].split()[0])
    assert scanned < 1000
    assert result.computed == f"2000 classes, {scanned} reach the curve scan, full agreement"


def test_cross_method_certifies_its_curve_check_verdicts(monkeypatch):
    # both methods stubbed to agree on not nef, the curve check with the
    # root e_1 - e_2 as its witness: it pairs negatively with some of the
    # classes, but is neither the class nor effective, so it certifies
    # none of them and only the certificate can fail the check
    def root(v, max_degree=None):
        return NefVerdict(basis_vector(v.n, 1) - basis_vector(v.n, 2), max_degree)

    monkeypatch.setattr(verify, "is_nef_K_nonpositive", root)
    monkeypatch.setattr(verify, "curve_check", root)
    result = run_check(monkeypatch, "cross_method")
    assert result.status == FAIL
    assert "witness fails: (0, 1, -1, 0" in result.computed
    assert "not_nef vs" not in result.computed


def _region_rows(change):
    # verify_region_R with change applied to each row of its report
    def patched(n):
        rows = polytopes.verify_region_R(n).rows
        return RegionRReport(n, tuple(change(row) for row in rows))

    return patched


def _drop_vertex(row):
    return RegionRRow(row.triple, row.point, row.is_vertex and row.triple != (0, 1, 3), row.f_value)


def _halve_f(row):
    return RegionRRow(row.triple, row.point, row.is_vertex, row.f_value / 2)


_NOT_COXETER = CoxeterCheck(((0, 1, None),))  # names no (e_n, -K) pair

# verify's own names are stubbed, so a stub reaches the real function
# through its home module; the sampled checks' findings were frozen before the runner of the
# checks became one loop, so they pin each check's random stream
FAILURE_PATHS = {
    "cartan_sorted_cone": ("quick", {"is_coxeter": lambda P: _NOT_COXETER}, (
        "n=9: entries ['-1', '0', '2'], coxeter=False; "
        "n=10: entries ['-1', '0', '2'], coxeter=False; "
        "n=11: entries ['-1', '0', '2'], coxeter=False")),
    "coxeter_classification": ("quick", {"is_coxeter": lambda P: _NOT_COXETER}, (
        "n=10: coxeter=False; n=11: coxeter=False; n=12: (e_n, -K) cos^2 None")),
    "region_r_table/summary": ("quick", {"verify_region_R": lambda n: RegionRReport(n, ())}, (
        "n=10: the f <= 1 summary fails (0 vertices); "
        "n=12: the f <= 1 summary fails (0 vertices)")),
    "region_r_table/vertex": ("quick", {"verify_region_R": _region_rows(_drop_vertex)}, (
        "n=10 (0, 1, 3): vertex=False")),
    "region_r_table/f": ("quick", {"verify_region_R": _region_rows(_halve_f)}, (
        "n=10 (0, 1, 3): f=1/2!=1; n=10 (0, 1, 4): f=1/2!=1; n=10 (0, 2, 3): f=1/2!=1")),
    "curve_counts/count": ("paper", {"enumerate_minus_one": lambda n, d: (
        curves.enumerate_minus_one(n, d)[1:])}, (
        "n=3: 5 (deg<=9: 5); n=4: 9 (deg<=9: 9); n=5: 15 (deg<=9: 15)")),
    "curve_counts/pairing": ("paper", {"enumerate_minus_one": lambda n, d: [
        basis_vector(n, 0), *curves.enumerate_minus_one(n, d)[1:]]}, (
        "n=3: a class fails the pairing conditions; n=4: a class fails the pairing "
        "conditions; n=5: a class fails the pairing conditions")),
    "group_action/pairing": ("quick", {"apply_generator": lambda g, u: (
        weyl.apply_generator(g, u) + basis_vector(u.n, 0))}, (
        "500 failures, first trial 0: Phi(1,2,9) changes a pairing; "
        "trial 1: Phi(1,3,7) changes a pairing; trial 2: Phi(1,9,10) changes a pairing")),
    "group_action/involution": ("quick", {"apply_generator": lambda g, u: (
        weyl.apply_word(WeylWord((g, Sigma(1))), u))}, (
        "489 failures, first trial 0: phi_134 phi_234 phi_134 != sigma_1; "
        "trial 1: Phi(1,3,7) is not an involution; trial 2: Phi(1,9,10) is not an involution")),
    "group_action/K": ("quick", {"apply_generator": lambda g, u: (
        PicClass(u.n, (-u.coords[0], *u.coords[1:])))}, (
        "500 failures, first trial 0: Phi(1,2,9) moves K; "
        "trial 1: Phi(1,3,7) moves K; trial 2: Phi(1,9,10) moves K")),
    "group_action/sigma": ("quick", {"apply_word": lambda w, u: u}, (
        "476 failures, first trial 0: phi_134 phi_234 phi_134 != sigma_1; "
        "trial 1: phi_134 phi_234 phi_134 != sigma_1; trial 2: phi_134 phi_234 phi_134 != sigma_1")),
    "round_trip/round_trip": ("quick", {"reduce_class": lambda v: (
        weyl.reduce_class(basis_vector(v.n, 0)))}, (
        "trial 0: (81, -29, -26, -23, -19, -15, -13, -12, -9, -8, -7, -6, -2) via 28 gens; "
        "trial 1: (90, -31, -28, -27, -25, -21, -19, -18, -14, -10, -6, -5, -1) via 26 gens; "
        "trial 2: (86, -32, -28, -24, -20, -18, -15, -14, -10, -6, -4, -3, -1) via 5 gens")),
    "round_trip/witness": ("quick", {"check_certificate": lambda v, res: False}, (
        "witness fails: (6, 7, -6, -6, 2, 10, -9, -9, -5, 4) -> "
        "(1, 0, 0, 0, 0, 0, -1, -1, 0, 0); "
        "witness fails: (9, 3, -10, 0, 8, -8, -1, 3, -3, 10, -3, -2, 3) -> "
        "(0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0); "
        "witness fails: (-4, 10, 3, 3, 6, -1, 5, -2, 10, -10, 0, -9, 8) -> "
        "(0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0)")),
    "cross_method": ("paper", {"curve_check": lambda v, max_degree: NefVerdict(None, max_degree)}, (
        "2000 classes, 1001 reach the curve scan, "
        "(6, 6, 10, 6, -6, 3, 1, 7, -2, 6, 2): not_nef vs nef; "
        "(1, -6, 6, -7, 10, -3, 7, -9, -9, 10): not_nef vs nef; "
        "(5, -5, 1, 4, -8, 5, -5, -8, 10, 1, -8): not_nef vs nef")),
}


@pytest.mark.parametrize("case", sorted(FAILURE_PATHS))
def test_a_failing_check_names_at_most_three_findings(monkeypatch, case):
    # each finding of each check, forced by a stub of what the check calls
    suite, stubs, computed = FAILURE_PATHS[case]
    for name, stub in stubs.items():
        monkeypatch.setattr(verify, name, stub)
    result = run_check(monkeypatch, case.split("/")[0], suite)
    assert (result.status, result.computed) == (FAIL, computed)
