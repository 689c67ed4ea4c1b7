"""CLI contract: commands, formats, and the exit-code mapping
(0 success/nef, 2 usage or precondition error, 3 negative verdict)."""

import json

import pytest

from cremona.cli import CURVES_MAX_CLASSES, CURVES_MAX_DEGREE, RAYS_MAX_N, main
from cremona.curves import _count_minus_one, enumerate_minus_one


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

    def test_past_class_cap_exits_two(self, capsys):
        # degree 9 at n = 10 would print 224,629 classes
        code, out, err = run(capsys, "curves", "--n", "10", "--max-degree", "9")
        assert code == 2 and out == ""
        assert f"more than {CURVES_MAX_CLASSES} classes" in err

    def test_huge_n_exits_two_at_once(self, capsys):
        code, _, err = run(capsys, "curves", "--n", str(10**12), "--max-degree", "1")
        assert code == 2
        assert "classes" in err

    def test_past_degree_cap_exits_two(self, capsys):
        # n = 8 has only 240 classes, so only the degree cap stops the loop
        code, _, err = run(capsys, "curves", "--n", "8",
                           "--max-degree", str(CURVES_MAX_DEGREE + 1))
        assert code == 2
        assert "cap" in err
        code, out, _ = run(capsys, "curves", "--n", "8",
                           "--max-degree", str(CURVES_MAX_DEGREE))
        assert code == 0 and "total: 240" in out

    def test_caps_admit_the_documented_sizes(self):
        # curves --n 10 --max-degree 8 (117,754 classes) and the benchmark's
        # --max-degree 6, without running the enumeration here
        assert _count_minus_one(10, 8, CURVES_MAX_CLASSES) == 117_754 <= CURVES_MAX_CLASSES
        assert _count_minus_one(10, 6, CURVES_MAX_CLASSES) <= CURVES_MAX_CLASSES
        assert CURVES_MAX_DEGREE >= 8

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
        assert "n >= 10" in err


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
        code, out, err = run(capsys, "rays", "--n", str(RAYS_MAX_N + 1),
                             "--polytope", "p_minus")
        assert code == 2 and out == ""
        assert "cap" in err

    def test_cap_admits_n_30(self, capsys):
        # 9n - 71 rays for p_minus
        assert RAYS_MAX_N >= 30
        code, out, _ = run(capsys, "rays", "--n", "30", "--polytope", "p_minus")
        assert code == 0
        assert "rays: 199," in out


class TestOrbit:
    def test_bounded_orbit(self, capsys):
        code, out, _ = run(
            capsys, "orbit", "--n", "6", "--vector", "0,0,0,0,0,0,1",
            "--max-degree", "2",
        )
        assert code == 0
        assert "count: 27, truncated: False" in out

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

    def test_bad_n_range_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "quick", "--n-range", "ten")
        assert code == 2

    def test_reversed_n_range_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "quick", "--n-range", "14..10")
        assert code == 2
        assert "empty" in err

    def test_seed_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "quick", "--seed", "7")
        assert code == 0
        assert "0 failed" in out


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
