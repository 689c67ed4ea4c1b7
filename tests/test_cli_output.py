"""The CLI's streamed output: byte for byte what json.dumps(indent=2)
gives, in constant memory for the bulk commands."""

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cremona.cli import _Output, main

SRC = Path(__file__).resolve().parents[1] / "src"


def written(obj) -> str:
    out = _Output()
    buf = io.StringIO()
    with redirect_stdout(buf):
        out.json(obj)
        out.flush()
    return buf.getvalue()


def fed(obj, rnd: random.Random):
    """obj with some of its lists (at any depth) replaced by iterators."""
    if isinstance(obj, dict):
        return {k: fed(v, rnd) for k, v in obj.items()}
    if isinstance(obj, list):
        items = [fed(x, rnd) for x in obj]
        return iter(items) if rnd.random() < 0.5 else items
    return obj


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**53).map(lambda x: x * 10**30)
    | st.floats()
    | st.text()
    | st.sampled_from(['"', "\\", "\n", "\x00\x1f\x7f", "é", "🂡", "\ud800", "'quoted'"])
)
keys = st.text()
trees = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(keys, inner, max_size=5),
    max_leaves=30,
)


class TestWriter:
    @settings(max_examples=400, deadline=None)
    @given(trees)
    def test_matches_json_dumps(self, obj):
        assert written(obj) == json.dumps(obj, indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(trees, st.randoms(use_true_random=False))
    def test_iterators_stand_for_lists(self, obj, rnd):
        assert written(fed(obj, rnd)) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize(
        "obj, text",
        [
            (iter(()), "[]"),
            ({"a": iter([])}, '{\n  "a": []\n}'),
            ((x for x in [{}, []]), "[\n  {},\n  []\n]"),
            ({"n": 1, "m": [float("nan"), -math.inf]}, '{\n  "n": 1,\n  "m": [\n    NaN,\n    -Infinity\n  ]\n}'),
        ],
    )
    def test_small_cases(self, obj, text):
        assert written(obj) == text + "\n"

    @pytest.mark.parametrize("obj", [{"a": {1, 2}}, [b"x"], {(1, 2): 3}, [object()]])
    def test_rejects_what_json_rejects(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError):
            written(obj)

    def test_refuses_a_key_that_is_not_a_string(self):
        # json.dumps would write "1"; no document of the CLI has such a key
        with pytest.raises(TypeError):
            written({1: 2})

    def test_batches_writes(self):
        writes = []

        class Sink:
            def write(self, text):
                writes.append(len(text))

        out = _Output()
        with redirect_stdout(Sink()):
            out.json({"classes": ({"coords": list(range(11))} for _ in range(20_000))})
            for _ in range(20_000):
                out.line("a line of text output")
            out.flush()
        assert sum(writes) > 3_000_000
        assert len(writes) < sum(writes) / 50_000


JSON_COMMANDS = [
    ["reduce", "--n", "9", "--vector", "2,-1,-1,-1,0,0,0,0,0,0"],
    ["reduce", "--n", "9", "--vector", "0,1,0,0,0,0,0,0,0,0"],
    ["curves", "--n", "6"],
    ["cartan", "--n", "10", "--polytope", "p_minus"],
    ["rays", "--n", "12", "--polytope", "p_minus"],
    ["orbit", "--n", "6", "--vector", "0,0,0,0,0,0,1", "--max-degree", "3"],
    ["orbit", "--n", "6", "--vector", "0,0,0,0,0,0,1", "--max-count", "1"],
    ["nef-test", "--n", "9", "--vector", "0,1,0,0,0,0,0,0,0,0"],
    ["nef-test", "--n", "6", "--vector", "1,0,0,0,0,0,0", "--method", "curves"],
    ["region-r", "--n", "12"],
    ["verify", "--suite", "quick"],
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda argv: " ".join(argv[:3]))
def test_json_output_is_indent_2(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code in (0, 3)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# sha256 of stdout at the commit before the streamed writer, where the
# output was one json.dumps(..., indent=2) string.
CURVES_SHA256 = {
    "json": "269c151ebb9c6fe29eb13b3312c5d420ec4721919cf052b3879b2b12f9a2cab9",
    "csv": "402723c69187d82253d1b26b1e92e1dc99c1fc21a6191d43c8f301bfa5775a85",
}


@pytest.mark.parametrize("fmt", sorted(CURVES_SHA256))
def test_curves_output_is_pinned(capsys, fmt):
    assert main(["curves", "--n", "10", "--max-degree", "6", "--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CURVES_SHA256[fmt]


# sha256 over a window of n of `cartan` and `diagram` as run by
# polytope_transcript: exit code, stdout and stderr of each call.  Frozen
# at the commit before the shared angle pass; the windows include the
# non-Coxeter P_minus(n), whose diagram exits 3 with the pairs on stderr.
POLYTOPE_WINDOWS = {"p_tilde": range(3, 31), "p": range(3, 31), "p_minus": range(10, 41)}
POLYTOPE_SHA256 = {
    ("cartan", "json", "p_tilde"): "8bfb04769838dcd7a552b9cdb366fdc2767f530098951cd7483fae95a9d0885b",
    ("cartan", "json", "p"): "f4ef99df5ab844f88b47d8f2f64acbf95dfb274a60d1931c26fd53ff45f63961",
    ("cartan", "json", "p_minus"): "1a31221f42550c9c709d5d8c46b193dde7d87dfdf626ece948f78e421acce791",
    ("cartan", "csv", "p_tilde"): "c9b85a84c56564b69b9d4cec5765dfd353c1016a166568a51ec84f3b22f6d17d",
    ("cartan", "csv", "p"): "1b27402328f5ad8676d34fce1b5e4ddbcd754594ac3503577c319b55d244f62e",
    ("cartan", "csv", "p_minus"): "178873b209bbeba49e5bdc1f08cf4c43f25c84af58785ea6b88c5fcc0b329153",
    ("cartan", "text", "p_tilde"): "6a93743b957d994421f0106a445193bb8a5024781000974e96c708374be185de",
    ("cartan", "text", "p"): "af8f5b0a1c7c412798b2d29b57b8966be126772f4fcff2c222c422fed7a3be27",
    ("cartan", "text", "p_minus"): "6f70248c9155a9ac86f945de15b583b4f923a7cf3c3a49f90e7d8a6be34e4b7b",
    ("diagram", "dot", "p_tilde"): "053aeac2aee8dae2811742488167424b2bbc9358048a3f3acb9c78f77e3c6137",
    ("diagram", "dot", "p"): "0688e0b0e923f7b524fa46fe725142d532000a1bfeef596452e637b48da3121b",
    ("diagram", "dot", "p_minus"): "b96e9450dec7beee95a912e43f2afb0c22daa8a546ef42ebdf90724b59e7f2e8",
    ("diagram", "text", "p_tilde"): "87b00cdd5903aac0bd25f6b2bf6efe604ccd6a2044600b599aacd92d00e2d473",
    ("diagram", "text", "p"): "ca9d47634e76965260346ef3de37372a0e99a5d6f7ddfa047d975909e544ba1f",
    ("diagram", "text", "p_minus"): "007c23f0d75058d975767c61e3180d8b3058dffbe02fcf9eee45114283721893",
}


def polytope_transcript(command: str, fmt: str, polytope: str, ns=None) -> str:
    digest = hashlib.sha256()
    for n in POLYTOPE_WINDOWS[polytope] if ns is None else ns:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "--n", str(n), "--polytope", polytope, "--format", fmt])
        digest.update(f"n={n} exit={code}\n{out.getvalue()}\0{err.getvalue()}\0".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(POLYTOPE_SHA256), ids=" ".join)
def test_polytope_output_is_pinned(key):
    assert polytope_transcript(*key) == POLYTOPE_SHA256[key]


# sha256 of `rays` transcripts over n = first..last, made as above: the
# rays, their order and active sets, the light-cone tags and counts.
# Frozen at the commit before the sparse double description.  P_tilde
# contains a line at every n, so its windows pin the exit-2 message.
RAYS_SHA256 = {
    ("csv", "p", 3, 30): "415f12a4f521796b468408ea967fd46374f6bc0157051df66aae2a1c4eb937ed",
    ("csv", "p_minus", 10, 40): "c1fd36510b13e8302a8073c09550385089706d076fbb38c79b7f1dc3167f1206",
    ("csv", "p_minus", 100, 100): "f38f5a33ad680ee86e3f40d057569140ae009e886eec01483775ab70b9840cbd",
    ("csv", "p_tilde", 3, 30): "3eb83ef34105f1d5c3cffb571b04e3afdd609282a17cc9e0583b732b79305d7b",
    ("json", "p", 3, 30): "272fa64841d0f5338ea3a18a7239e626274f2ae9cbd50e0a0b215adee64b6151",
    ("json", "p_minus", 10, 40): "0201ee2782d6866f97224cb576a50fc033f8f9bbd5b148dd795898426ea51777",
    ("json", "p_minus", 100, 100): "51960f555d62f0f143fb35197b4d4a1082414eb47f41853d2133ad31c9ebbfc0",
    ("json", "p_tilde", 3, 30): "3eb83ef34105f1d5c3cffb571b04e3afdd609282a17cc9e0583b732b79305d7b",
    ("text", "p", 3, 30): "eafb29f600eddce52b66d0ac8b917a141826217096b5b0b84cd2c9124643ca26",
    ("text", "p_minus", 10, 40): "48ffecfb0a853c152c6fc65732d892457d084df5ae5160f081db0cc76b9f18e0",
    ("text", "p_minus", 100, 100): "365e8dd4718c90b5772dd859644879d4374c50902bfb531ac36e1dc54630844d",
    ("text", "p_tilde", 3, 30): "3eb83ef34105f1d5c3cffb571b04e3afdd609282a17cc9e0583b732b79305d7b",
}


@pytest.mark.parametrize("key", sorted(RAYS_SHA256), ids=lambda key: " ".join(map(str, key)))
def test_rays_output_is_pinned(key):
    fmt, polytope, first, last = key
    transcript = polytope_transcript("rays", fmt, polytope, range(first, last + 1))
    assert transcript == RAYS_SHA256[key]


# The child's peak RSS is read in a fresh wrapper interpreter: on Linux a
# child forked from a large process (pytest) reports at least that
# process's RSS.  Before streaming, this command peaked at 69 MiB.
PEAK_RSS_BOUND_MIB = 40
WRAPPER = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "cremona", *sys.argv[1:]],
               stdout=subprocess.DEVNULL, check=True, timeout=60)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(peak / 2**20 if sys.platform == "darwin" else peak / 2**10)
"""


def test_curves_json_peak_rss():
    pytest.importorskip("resource")
    argv = ["curves", "--n", "10", "--max-degree", "6", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-c", WRAPPER, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    peak_mib = float(proc.stdout)
    assert peak_mib < PEAK_RSS_BOUND_MIB, f"peak RSS {peak_mib:.1f} MiB"


def test_closed_stdout_exits_quietly():
    # the reader stops after 10 bytes, as `| head -c 10` does; the 135 kB
    # of the Cartan matrix cannot all fit in the pipe before it closes
    proc = subprocess.Popen(
        [sys.executable, "-m", "cremona", "cartan", "--n", "100", "--polytope", "p_minus"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    # each read waits on the child, so one that hangs is killed at 60 s and fails
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait()
    finally:
        watchdog.cancel()
    assert code == 1
    assert err == b""
    assert len(head) == 10
