"""CLI contract: commands, formats, and the exit-code mapping
(0 success/nef, 2 usage or precondition error, 3 negative verdict)."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from cremona import polytopes, verify
from cremona.cli import (
    CURVES_MAX_CLASSES,
    ORBIT_MAX_CLASSES,
    POLYTOPE_MAX_N,
    main,
)
from cremona.curves import _count_minus_one, enumerate_minus_one
from cremona.lattice import pairing
from cremona.polytopes import build_P_minus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_in_cone_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--n", "9", "--vector", "2,-1,-1,-1,0,0,0,0,0,0"
        )
        assert code == 0
        assert "status: in_cone" in out
        assert "reduced: 1,0,0,0,0,0,0,0,0,0" in out
        assert "phi(1,2,3)" in out

    def test_not_nef_exits_three(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--n", "9", "--vector", "0,1,0,0,0,0,0,0,0,0"
        )
        assert code == 3
        assert "violated:" in out

    def test_k_positive_exits_two(self, capsys):
        code, _, err = run(
            capsys, "reduce", "--n", "9", "--vector", "0,-1,0,0,0,0,0,0,0,0"
        )
        assert code == 2
        assert "K-positive" in err

    def test_wrong_length_exits_two(self, capsys):
        code, _, err = run(capsys, "reduce", "--n", "9", "--vector", "1,0")
        assert code == 2
        assert "coordinates" in err

    def test_garbage_vector_exits_two(self, capsys):
        code, _, err = run(capsys, "reduce", "--n", "9", "--vector", "1,zebra")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--n", "9", "--format", "json",
            "--vector", "2,-1,-1,-1,0,0,0,0,0,0",
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["status"] == "in_cone"
        assert blob["reduced"]["coords"] == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]


class TestOrbitCapScalesWithN:
    """Past n = 10 the class cap of orbit shrinks by 11/(n + 1); the calls
    that the scaled caps refuse are rows of tests/test_bounds.py."""

    def test_orbit_cap_keeps_one_class(self, capsys):
        # 10,000 * 11 // 120,001 is 0; a one-class orbit still prints
        code, out, _ = run(capsys, "orbit", "--n", "120000", "--vector", "1" + ",0" * 120_000,
                           "--max-degree", "1")
        assert code == 0 and out.endswith("count: 1, truncated: False\n")

    @pytest.mark.parametrize("n, cap", [(10, 10_000), (11, 9_166), (200, 547)])
    def test_orbit_max_count_cap(self, capsys, n, cap):
        vector = "0,1" + ",0" * (n - 1)
        code, out, _ = run(capsys, "orbit", "--n", str(n), "--vector", vector,
                           "--max-degree", "0", "--max-count", str(cap))
        assert code == 0 and out.endswith(f"count: {n}, truncated: False\n")
        code, out, err = run(capsys, "orbit", "--n", str(n), "--vector", vector,
                             "--max-degree", "0", "--max-count", str(cap + 1))
        assert code == 2 and out == ""
        assert err == f"error: max_count must be <= {cap}, got {cap + 1}\n"


class TestCurves:
    def test_text_summary(self, capsys):
        code, out, _ = run(capsys, "curves", "--n", "6")
        assert code == 0
        assert "total: 27" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "curves", "--n", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,multiplicities,coords"
        assert len(lines) == 11  # header + 10 classes

    def test_json(self, capsys):
        code, out, _ = run(capsys, "curves", "--n", "5", "--format", "json")
        blob = json.loads(out)
        assert code == 0
        assert blob["count"] == 16
        assert len(blob["classes"]) == 16

    def test_small_n_rejected(self, capsys):
        code, _, err = run(capsys, "curves", "--n", "2")
        assert code == 2
        assert err == "error: n must be >= 3, got 2\n"

    def test_past_class_cap_exits_two(self, capsys):
        # degree 9 at n = 10 would print 224,629 classes
        code, out, err = run(capsys, "curves", "--n", "10", "--max-degree", "9")
        assert code == 2 and out == ""
        assert f"more than {CURVES_MAX_CLASSES} classes" in err

    def test_huge_n_exits_two_at_once(self, capsys):
        code, _, err = run(capsys, "curves", "--n", str(10**12), "--max-degree", "1")
        assert code == 2
        assert "classes" in err

    def test_caps_admit_the_documented_sizes(self):
        # curves --n 10 --max-degree 8 (117,754 classes) and the benchmark's
        # --max-degree 6, without running the enumeration here
        assert _count_minus_one(10, 8, CURVES_MAX_CLASSES) == 117_754 <= CURVES_MAX_CLASSES
        assert _count_minus_one(10, 6, CURVES_MAX_CLASSES) <= CURVES_MAX_CLASSES

    @pytest.mark.parametrize("n, max_degree", [(3, 4), (6, 5), (9, 4), (10, 3), (12, 2)])
    def test_class_count_matches_enumeration(self, n, max_degree):
        assert _count_minus_one(n, max_degree, 10**9) == len(enumerate_minus_one(n, max_degree))


class TestCartan:
    def test_text_matrix(self, capsys):
        code, out, _ = run(capsys, "cartan", "--n", "9")
        assert code == 0
        assert "-sqrt(2)" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "cartan", "--n", "9", "--format", "json")
        blob = json.loads(out)
        assert code == 0
        assert len(blob) == 10 and len(blob[0]) == 10

    def test_p_minus_too_small_exits_two(self, capsys):
        code, _, err = run(capsys, "cartan", "--n", "9", "--polytope", "p_minus")
        assert code == 2
        assert err == "error: n must be >= 10, got 9\n"


class TestDiagram:
    def test_ascii(self, capsys):
        code, out, _ = run(capsys, "diagram", "--n", "9")
        assert code == 0
        assert "v8 == v9" in out

    def test_dot(self, capsys):
        code, out, _ = run(
            capsys, "diagram", "--n", "10", "--polytope", "p_minus", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("graph coxeter {")
        assert "style=dashed" in out

    def test_non_coxeter_exits_three(self, capsys):
        code, _, err = run(capsys, "diagram", "--n", "12", "--polytope", "p_minus")
        assert code == 3
        assert "cos^2 = 1/3" in err

    @pytest.mark.parametrize("n, code", [(13, 0), (12, 3)])
    def test_classifies_each_distinct_triple_once(self, capsys, monkeypatch, n, code):
        calls = []
        classify = polytopes._classify

        def counted(p, a2, b2):
            calls.append((p, a2, b2))
            return classify(p, a2, b2)

        monkeypatch.setattr(polytopes, "_classify", counted)
        assert run(capsys, "diagram", "--n", str(n), "--polytope", "p_minus")[0] == code
        normals = build_P_minus(n).all_normals
        triples = {
            (pairing(u, v), pairing(u, u), pairing(v, v))
            for i, u in enumerate(normals)
            for v in normals[i:]
        }
        assert len(calls) == len(set(calls)) == len(triples)
        assert set(calls) == triples
        assert len(triples) < len(normals)  # against n(n+1)/2 pairs


class TestRays:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "rays", "--n", "9")
        assert code == 0
        assert "rays: 10, boundary: 2" in out

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "rays", "--n", "10", "--polytope", "p_minus", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "coords,square,position"
        assert len(lines) == 20  # header + 19 rays

    def test_json(self, capsys):
        code, out, _ = run(capsys, "rays", "--n", "9", "--format", "json")
        blob = json.loads(out)
        assert blob["count"] == 10 and blob["boundary"] == 2

    def test_non_pointed_exits_two(self, capsys):
        code, _, err = run(capsys, "rays", "--n", "9", "--polytope", "p_tilde")
        assert code == 2
        assert "not pointed" in err

    def test_past_cap_exits_two(self, capsys):
        code, out, err = run(capsys, "rays", "--n", str(POLYTOPE_MAX_N + 1),
                             "--polytope", "p_minus")
        assert code == 2 and out == ""
        assert err == f"error: n must be <= {POLYTOPE_MAX_N}, got {POLYTOPE_MAX_N + 1}\n"

    def test_cap_admits_n_30(self, capsys):
        # 9n - 71 rays for p_minus
        assert POLYTOPE_MAX_N >= 30
        code, out, _ = run(capsys, "rays", "--n", "30", "--polytope", "p_minus")
        assert code == 0
        assert "rays: 199," in out


@pytest.mark.parametrize("command", ["cartan", "diagram", "rays"])
class TestPolytopeCap:
    def test_cap_admits_n_100(self, capsys, command):
        assert POLYTOPE_MAX_N == 100
        code, out, _ = run(capsys, command, "--n", "100")
        assert code == 0 and out


class TestOrbit:
    def test_bounded_orbit(self, capsys):
        code, out, _ = run(
            capsys, "orbit", "--n", "6", "--vector", "0,0,0,0,0,0,1",
            "--max-degree", "2",
        )
        assert code == 0
        assert "count: 27, truncated: False" in out

    def test_csv_lists_the_json_classes(self, capsys):
        argv = ["orbit", "--n", "6", "--vector", "0,0,0,0,0,0,1", "--max-degree", "2"]
        _, out, _ = run(capsys, *argv, "--format", "json")
        want = [" ".join(map(str, c["coords"])) for c in json.loads(out)["classes"]]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["coords"] + want and len(want) == 27

    def test_missing_bound_exits_two(self, capsys):
        code, _, err = run(capsys, "orbit", "--n", "6", "--vector", "0,0,0,0,0,0,1")
        assert code == 2

    def test_truncation_flagged(self, capsys):
        code, out, _ = run(
            capsys, "orbit", "--n", "6", "--vector", "0,0,0,0,0,0,1",
            "--max-count", "5", "--format", "json",
        )
        blob = json.loads(out)
        assert code == 0
        assert blob["truncated"] is True and blob["count"] == 5

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_max_count_below_one_exits_two(self, capsys, count):
        code, out, err = run(
            capsys, "orbit", "--n", "9", "--vector", "0,0,0,0,0,0,0,0,0,1",
            "--max-count", count,
        )
        assert code == 2 and out == ""
        assert err == f"error: max_count must be >= 1, got {count}\n"

    def test_negative_max_degree_exits_two(self, capsys):
        code, out, err = run(
            capsys, "orbit", "--n", "6", "--vector", "0,0,0,0,0,0,1",
            "--max-degree", "-1",
        )
        assert code == 2 and out == ""
        assert err == "error: max_degree must be >= 0, got -1\n"

    def test_class_cap_admits_degree_4(self, capsys):
        # 6,421 classes; the sha256 of the text output was taken before
        # the cap was added
        assert ORBIT_MAX_CLASSES == 10_000
        code, out, _ = run(
            capsys, "orbit", "--n", "10", "--vector", "1" + ",0" * 10, "--max-degree", "4",
        )
        assert code == 0
        assert out.endswith("count: 6421, truncated: False\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "369bf0469021cbd4a3489e87eadf4a4110ceb258e0062ae36bf5bb3229a6189e")

    def test_max_count_at_class_cap_is_admitted(self, capsys):
        code, out, _ = run(
            capsys, "orbit", "--n", "6", "--vector", "0,0,0,0,0,0,1", "--max-count", "10000",
            "--max-degree", "3",
        )
        assert code == 0
        assert out.endswith(", truncated: False\n")


class TestNefTest:
    def test_nef_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "nef-test", "--n", "9", "--vector", "1,0,0,0,0,0,0,0,0,0"
        )
        assert code == 0
        assert "verdict: nef" in out

    def test_not_nef_exits_three(self, capsys):
        code, out, _ = run(
            capsys, "nef-test", "--n", "9", "--vector", "0,1,0,0,0,0,0,0,0,0"
        )
        assert code == 3

    def test_curves_method(self, capsys):
        code, out, _ = run(
            capsys, "nef-test", "--n", "6", "--vector", "1,0,0,0,0,0,0",
            "--method", "curves", "--max-degree", "4",
        )
        assert code == 0
        assert "curve_check up to degree 4" in out

    def test_json_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "nef-test", "--n", "9", "--format", "json",
            "--vector", "0,1,0,0,0,0,0,0,0,0",
        )
        blob = json.loads(out)
        assert code == 3
        assert blob["verdict"] == "not_nef"

    @pytest.mark.parametrize("vector", ["0,1,1,0,0,0,0,0,0,0", "3,-1,0,0,0,0,0,0,0,0"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_curves_method_negative_degree_exits_two(self, capsys, vector, fmt):
        # the first vector has a negative square, the second does not
        code, out, err = run(
            capsys, "nef-test", "--n", "9", "--vector", vector, "--method", "curves",
            "--max-degree", "-1", "--format", fmt,
        )
        assert code == 2 and out == ""
        assert err == "error: max_degree must be >= 0, got -1\n"

    @pytest.mark.parametrize("method", [(), ("--method", "reduction")])
    @pytest.mark.parametrize("degree", ["-7", "6"])
    def test_max_degree_without_curves_method_exits_two(self, capsys, method, degree):
        # the exact reduction takes no bound, so the option would be ignored
        code, out, err = run(
            capsys, "nef-test", "--n", "9", "--vector", "6,-3,-2,-2,-2,-1,-1,-1,0,0",
            *method, "--max-degree", degree,
        )
        assert code == 2 and out == ""
        assert err == "error: --max-degree applies only with --method curves\n"

    def test_curves_method_bound_defaults_to_six(self, capsys):
        argv = ("nef-test", "--n", "9", "--vector", "6,-3,-2,-2,-2,-1,-1,-1,0,0",
                "--method", "curves")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "method: curve_check up to degree 6" in out
        assert run(capsys, *argv, "--max-degree", "6") == (code, out, "")

class TestRegionR:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "region-r", "--n", "12")
        assert code == 0
        assert "vertices: 6" in out
        assert "max f at vertices: 1" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "region-r", "--n", "10", "--format", "json")
        blob = json.loads(out)
        assert code == 0
        assert blob["ok"] is True
        assert blob["vertex_count"] == 8

    def test_small_n_exits_two(self, capsys):
        code, _, err = run(capsys, "region-r", "--n", "9")
        assert code == 2


class TestVerify:
    def test_quick_suite_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "quick")
        assert code == 0
        assert "PASS  cartan_p9" in out
        assert "XFAIL diagram_p_minus_11_triple_edge" in out
        assert "0 failed" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "quick", "--format", "json")
        blob = json.loads(out)
        assert code == 0
        statuses = {c["name"]: c["status"] for c in blob}
        assert statuses["diagram_p_minus_11_triple_edge"] == "xfail"
        assert all(s in ("pass", "xfail") for s in statuses.values())

    def test_failing_check_prints_its_claim_and_exits_three(self, capsys, monkeypatch):
        # the first declared check, then one declared here that fails
        monkeypatch.setattr(verify, "_CHECKS", verify._CHECKS[:1])
        verify._check("broken", "a claim")(lambda: (False, "1 ray", "2 rays"))
        code, out, _ = run(capsys, "verify", "--suite", "quick")
        assert code == 3
        assert out == (
            "PASS  cartan_p9\n"
            "FAIL  broken\n"
            "      claim:    a claim\n"
            "      expected: 1 ray\n"
            "      computed: 2 rays\n"
            "2 checks, 1 failed\n"
        )

    def test_n_range_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-range", "10..14"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n-range 10..14" in capsys.readouterr().err

    def test_seed_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "quick", "--seed", "7")
        assert code == 0
        assert "0 failed" in out


class TestStrictIntegers:
    """Every integer on the command line is optional whitespace, an
    optional sign and ASCII digits; int() alone took more than that."""

    @pytest.mark.parametrize("text", ["1_0", "١٠", "１０", "10.0", "1e1", "0x10", "", "+", "- 10"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "--n", "{}", "--vector", "10" + ",0" * 10],
            ["rays", "--n", "{}"],
            ["curves", "--n", "9", "--max-degree", "{}"],
            ["orbit", "--n", "6", "--vector", "0,0,0,0,0,0,1", "--max-count", "{}"],
            ["orbit", "--n", "6", "--vector", "0,0,0,0,0,0,1", "--max-degree", "{}"],
            ["nef-test", "--n", "6", "--vector", "0,0,0,0,0,0,1", "--max-degree", "{}"],
            ["verify", "--suite", "quick", "--seed", "{}"],
        ],
        ids=lambda argv: " ".join(a for a in argv if a.startswith("-") or a.isalpha()),
    )
    def test_options_refuse_non_plain_integers(self, capsys, argv, text):
        with pytest.raises(SystemExit) as exc:
            main([a.format(text) for a in argv])
        assert exc.value.code == 2
        assert f"invalid int value: {text!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "vector", ["1_0,-1,-1,-1", "١,0,0,0", "1,0,0,0.0", "1,,0,0", "1,0,0,0,", "1, +-1,0,0"]
    )
    def test_vector_refuses_non_plain_integers(self, capsys, vector):
        code, out, err = run(capsys, "reduce", "--n", "3", f"--vector={vector}")
        assert code == 2 and out == ""
        assert err == f"error: vector must be comma-separated integers, got {vector!r}\n"

    def test_an_option_past_the_digit_limit_names_the_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SystemExit) as exc:
            main(["rays", "--n", "1" * (limit + 1)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"argument --n: int value has more than {limit} digits\n")

    def test_a_coordinate_past_the_digit_limit_names_the_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        vector = "-" + "1" * (limit + 1) + ",1,0,0"
        code, out, err = run(capsys, "nef-test", "--n", "3", f"--vector={vector}")
        assert (code, out, err) == (2, "", f"error: coordinate has more than {limit} digits\n")
        assert run(capsys, "reduce", "--n", "3", "--vector=" + "9" * limit + ",0,0,0")[0] == 0

    def test_whitespace_and_signs_are_accepted(self, capsys):
        plain = run(capsys, "rays", "--n", "10")
        assert run(capsys, "rays", "--n", " +10 ") == plain
        plain = run(capsys, "reduce", "--n", "3", "--vector=3,-1,-1,0")
        assert run(capsys, "reduce", "--n", "3", "--vector= +3 , -1,-1\t,0 ") == plain
        assert plain[0] == 0


class TestParser:
    def test_unknown_command_raises_system_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["conquer"])
        assert exc.value.code == 2

    def test_no_command_raises_system_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_dot_only_for_diagrams(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cartan", "--n", "9", "--format", "dot"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command",
        ["reduce", "curves", "cartan", "diagram", "rays", "orbit", "nef-test", "region-r"],
    )
    def test_seed_only_for_verify(self, capsys, command):
        argv = [command, "--n", "10", "--seed", "1"]
        if command in ("reduce", "orbit", "nef-test"):
            argv += ["--vector", "1" + ",0" * 10]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_installed_script_is_main():
    # `pip install .` writes the `cremona` script from [project.scripts],
    # read here as text: tomllib needs Python 3.11, and CI starts at 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert table.split() == ["cremona", "=", '"cremona.cli:main"']
