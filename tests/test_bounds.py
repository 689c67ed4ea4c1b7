"""Every CLI command is bounded on adversarial input.  Each row runs
``python -m cremona`` in a child process under a hard 5 s timeout, so a
bound that breaks fails its row (``subprocess.run`` kills the child)
instead of hanging the run.  A row pins the exit code, stderr and the
tail of stdout; an empty tail pins an empty stdout.  The rows take each
adversarial family to every command it applies to: ``n`` up to 149,999,
a reversed tail, huge coordinates, a huge ``--max-degree`` and a
``--max-count`` past its cap.  Linux refuses one argument longer than
128 KiB, so a ``--vector`` stops at n = 60,000 (120 kB)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import coxeter_power_class

SRC = Path(__file__).resolve().parents[1] / "src"


def vector(coords) -> str:
    return ",".join(map(str, coords))


def reversed_tail(n: int) -> str:
    """(n^2, 0, -1, ..., -(n - 1)): its sort word has n(n - 1)/2 generators."""
    return vector((n * n, 0) + tuple(-k for k in range(1, n)))


# c^p (3, -2, -1^4, 0^4) at p = 10^9 takes 5 * 10^8 phi steps uncapped
HUGE = vector(coxeter_power_class(10**9, 9))
DEEP_20000 = vector(coxeter_power_class(10**9, 10) + (0,) * 19_990)


def refused(id, argv, message):
    """A call that exits 2 with this message and prints nothing."""
    return pytest.param(argv, 2, "", f"error: {message}\n", id=id)


def answered(id, argv, tail, code=0, marks=()):
    """A call that exits with this code and prints stdout ending in tail."""
    return pytest.param(argv, code, tail, "", id=id, marks=marks)


def open_item(item, why):
    # strict: the row fails the run once its ROADMAP item makes it pass
    return pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                             reason=f"ROADMAP item {item}: {why}")


ROWS = [
    # the step cap: 10^6 phi steps, scaled by 100/n past n = 100
    refused("reduce huge coordinates", ["reduce", "--n", "9", "--vector", HUGE],
            "reduction passed the cap of 1000000 phi steps"),
    refused("nef-test huge coordinates", ["nef-test", "--n", "9", "--vector", HUGE],
            "reduction passed the cap of 1000000 phi steps"),
    refused("reduce huge coordinates n=20000", ["reduce", "--n", "20000", "--vector", DEEP_20000],
            "reduction passed the cap of 5000 phi steps"),
    answered("reduce n=60000", ["reduce", "--n", "60000", "--vector", "1" + ",0" * 60_000],
             "witness: (identity)\niterations: 0\n"),
    answered("nef-test n=60000", ["nef-test", "--n", "60000", "--vector", "1" + ",0" * 60_000],
             "verdict: nef\nmethod: reduction_exact\nwitness: (identity)\n"),
    answered("reduce reversed tail n=4000",
             ["reduce", "--n", "4000", "--vector", reversed_tail(4000)],
             "sigma(2) sigma(1)\niterations: 0\n",
             marks=open_item(1, "the sort word costs n^2 comparisons (about 17 s)")),
    # the class cap of curves, 150,000 scaled by 11/(n + 1) past n = 10, and
    # the walk over the degrees, which ends with the classes at n <= 8
    refused("curves n=100000", ["curves", "--n", "100000", "--max-degree", "0"],
            "--n 100000 --max-degree 0 gives more than 16 classes"),
    refused("curves n=149999", ["curves", "--n", "149999", "--max-degree", "1"],
            "--n 149999 --max-degree 1 gives more than 11 classes"),
    answered("curves huge degree n=8", ["curves", "--n", "8", "--max-degree", "1000000000"],
             "total: 240\n"),
    refused("curves huge degree n=9", ["curves", "--n", "9", "--max-degree", "1000000000"],
            "--n 9 --max-degree 1000000000 gives more than 150000 classes"),
    # nef-test --method curves keeps the unscaled class cap
    refused("nef-test curves past the class cap",
            ["nef-test", "--n", "14", "--vector", "1" + ",0" * 14, "--method", "curves",
             "--max-degree", "8"],
            "--n 14 --max-degree 8 gives more than 150000 classes"),
    answered("nef-test curves huge degree n=8",
             ["nef-test", "--n", "8", "--vector", "1" + ",0" * 8, "--method", "curves",
              "--max-degree", "1000000000"],
             "verdict: nef\nmethod: curve_check up to degree 1000000000\n"),
    refused("nef-test curves huge degree n=9",
            ["nef-test", "--n", "9", "--vector", "6,-3,-2,-2,-2,-1,-1,-1,0,0", "--method", "curves",
             "--max-degree", "1000000000"],
            "--n 9 --max-degree 1000000000 gives more than 150000 classes"),
    refused("nef-test curves reversed tail n=4000",
            ["nef-test", "--n", "4000", "--vector", reversed_tail(4000), "--method", "curves"],
            "--n 4000 --max-degree 6 gives more than 150000 classes"),
    answered("nef-test curves n=20000",
             ["nef-test", "--method", "curves", "--n", "20000", "--max-degree", "0",
              "--vector", vector((1, 1) + (0,) * 19_999)],
             f"witness: {vector((0, 1) + (0,) * 19_999)}\n", code=3),
    # the class cap of orbit, 10,000 scaled by 11/(n + 1) past n = 10
    refused("orbit n=9000",
            ["orbit", "--n", "9000", "--vector", "0,1" + ",0" * 8999, "--max-degree", "0",
             "--format", "json"],
            "the orbit within --max-degree 0 has more than 12 classes"),
    refused("orbit huge degree n=10",
            ["orbit", "--n", "10", "--vector", "1" + ",0" * 10, "--max-degree", "60"],
            "the orbit within --max-degree 60 has more than 10000 classes"),
    refused("orbit huge degree n=20",
            ["orbit", "--n", "20", "--vector", "1" + ",0" * 20, "--max-degree", "60"],
            "the orbit within --max-degree 60 has more than 5238 classes"),
    answered("orbit n=200",
             ["orbit", "--n", "200", "--vector", "1" + ",0" * 200, "--max-degree", "1",
              "--format", "json"],
             '{\n  "count": 1,\n  "truncated": false,\n  "classes": [\n    {\n      "n": 200,\n'
             '      "coords": [\n        1,\n' + "        0,\n" * 199 + "        0\n"
             "      ]\n    }\n  ]\n}\n"),
    answered("orbit n=60000",
             ["orbit", "--n", "60000", "--vector", "1" + ",0" * 60_000, "--max-degree", "1"],
             "count: 1, truncated: False\n"),
    answered("orbit reversed tail n=4000",
             ["orbit", "--n", "4000", "--vector", reversed_tail(4000), "--max-count", "1"],
             ",-2,-1,0\ncount: 1, truncated: True\n"),
    answered("orbit huge coordinates", ["orbit", "--n", "9", "--vector", HUGE, "--max-count", "10"],
             "count: 10, truncated: True\n"),
    refused("orbit past the count cap",
            ["orbit", "--n", "6", "--vector", "0,0,0,0,0,0,1", "--max-count", "10001"],
            "max_count must be <= 10000, got 10001"),
    # the polytope commands take n <= 100
    *(refused(f"{command} n=101", [command, "--n", "101"], "n must be <= 100, got 101")
      for command in ("cartan", "diagram", "rays")),
    answered("rays n=100", ["rays", "--n", "100", "--polytope", "p_minus", "--format", "json"],
             "        99,\n        101\n      ]\n    }\n  ]\n}\n"),
    pytest.param(["diagram", "--n", "100", "--polytope", "p_minus"], 3, "",
                 "not a Coxeter polytope: pair (v_100, v_101) has cos^2 = 1/91, "
                 "not a submultiple of pi\n", id="diagram n=100"),
    # constant work at any n or seed
    answered("region-r n=100000", ["region-r", "--n", "100000"],
             "vertices: 6, max f at vertices: 1\n"),
    answered("verify huge seed", ["verify", "--suite", "quick", "--seed", str(10**30)],
             "14 checks, 0 failed, 1 expected failures (documented)\n"),
]


@pytest.mark.parametrize("argv, code, tail, err", ROWS)
def test_call_is_bounded(argv, code, tail, err):
    proc = subprocess.run(
        [sys.executable, "-m", "cremona", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert (proc.returncode, proc.stderr) == (code, err)
    assert proc.stdout.endswith(tail) if tail else proc.stdout == ""
