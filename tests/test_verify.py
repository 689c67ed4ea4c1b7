"""The named check registry: determinism and the documented expected
failure."""

import pytest

from cremona.verify import FAIL, PASS, XFAIL, _check_vertex_formulas, _Ctx, check_names, run_suite


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


@pytest.mark.parametrize("n_range", [(14, 10), (15, 30), (3, 9)])
def test_vertex_formulas_fail_when_no_n_is_covered(n_range):
    # a check over an empty set of n would pass vacuously
    result = _check_vertex_formulas(_Ctx(seed=0, n_lo=n_range[0], n_hi=n_range[1], scale=1))
    assert result.status == FAIL
    assert result.computed == f"n-range {n_range[0]}..{n_range[1]} covers none"
