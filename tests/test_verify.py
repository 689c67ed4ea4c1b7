"""The named check registry: determinism and the documented expected
failure."""

import hashlib
import json

import pytest

from cremona import polytopes, verify
from cremona.curves import Decomposition, decompose_inequality
from cremona.lattice import basis_vector
from cremona.nef import NefVerdict
from cremona.verify import FAIL, PASS, XFAIL, check_names, run_suite
from cremona.weyl import WeylWord


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
    passing = verify._check("passing", "claim p")(lambda ctx: (True, "e", "c"))
    verify._check("failing", "claim f", quick=False)(lambda ctx: (False, "e", "c"))
    verify._check("expected", "claim x", xfail=True)(lambda ctx: (False, "e", "c"))
    result = passing(verify._Ctx(seed=0, scale=1))
    assert result == verify.CheckResult("passing", PASS, "claim p", "e", "c")
    assert check_names("quick") == ["passing", "expected"]
    assert [(c.name, c.status, c.claim) for c in run_suite("paper").checks] == [
        ("passing", PASS, "claim p"), ("failing", FAIL, "claim f"), ("expected", XFAIL, "claim x")
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
    result = verify._check_decomposition(verify._Ctx(seed=0, scale=1))
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
    result = verify._check_cross_method(verify._Ctx(seed=0, scale=1))
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
    result = verify._check_cross_method(verify._Ctx(seed=0, scale=1))
    assert result.status == FAIL
    assert "witness fails: (0, 1, -1, 0" in result.computed
    assert "not_nef vs" not in result.computed
