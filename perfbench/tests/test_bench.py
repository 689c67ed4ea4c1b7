"""Tests of the benchmark itself: inputs, checker and tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

import calibration
import checks
import inputs
import ops
import run
import worker
from tracer import Tracer

def small(cycle, count):
    """The first `count` operations that stay cheap (no ray or curve enumeration)."""
    return [op for op in cycle if op["kind"] not in ("curves", "rays")][:count]


@pytest.mark.parametrize("workload", list(inputs.GENERATORS))
def test_same_seed_same_digest(workload):
    assert inputs.digest(inputs.make_cycle(workload, 7)) == inputs.digest(
        inputs.make_cycle(workload, 7))


@pytest.mark.parametrize("workload", list(inputs.GENERATORS))
def test_other_seed_other_digest(workload):
    assert inputs.digest(inputs.make_cycle(workload, 7)) != inputs.digest(
        inputs.make_cycle(workload, 8))


def test_tail_percentile_leaves_ten_samples_beyond():
    value, percentile, samples = run.tail_latency([float(i) for i in range(1, 101)])
    assert (value, percentile, samples) == (90.0, 90.0, 100)
    assert run.tail_latency([3.0, 1.0, 2.0])[0] == 1.0


def test_tracer_restores_every_wrapped_name():
    import cremona
    from cremona import lattice, nef

    pairing, post_init = lattice.pairing, lattice.PicClass.__dict__["__post_init__"]
    tracer = Tracer()
    tracer.install()
    try:
        assert nef.pairing is not pairing and nef.pairing.__wrapped__ is pairing
        cremona.is_nef_K_nonpositive(cremona.PicClass(9, (3,) + (-1,) * 9))
    finally:
        tracer.remove()
    assert tracer.patches and tracer.calls["lattice.pairing"] > 0
    for owner, attr, original in tracer.patches:
        assert getattr(owner, attr) is original
    assert nef.pairing is pairing and cremona.pairing is pairing
    assert lattice.PicClass.__dict__["__post_init__"] is post_init


def test_self_time_per_operation_within_its_wall_time(tmp_path):
    cycle = small(inputs.make_cycle("nef_stream", 3), 12) + small(
        inputs.make_cycle("cone_audit", 3), 12)
    out = worker.trace("nef_stream", cycle, str(tmp_path / "spans.jsonl"))
    assert out["failed"] == 0
    assert out["op_wall_s"]
    for op, wall in out["op_wall_s"].items():
        assert 0 < out["op_self_s"][op] <= wall


def traced_counts(workload, cycle, spans_path):
    proc = subprocess.run([sys.executable, str(run.WORKER), "trace", workload, str(spans_path)],
                          input=json.dumps(cycle), capture_output=True, text=True,
                          check=True, cwd=run.ROOT, timeout=300)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: v for k, v in metrics.items()
            if not k.endswith("_s") and k != "trace.overhead"}


@pytest.mark.parametrize("workload", list(inputs.GENERATORS))
def test_counts_repeat_across_traced_runs(workload, tmp_path):
    cycle = small(inputs.make_cycle(workload, 5), 16)
    first = traced_counts(workload, cycle, tmp_path / "a.jsonl")
    assert first == traced_counts(workload, cycle, tmp_path / "b.jsonl")
    assert any(v for k, v in first.items() if k.endswith(".calls"))


def loop_for(workload):
    runner = ops.Runner(workload, str(run.ROOT))
    return runner, worker.Loop(runner)


def test_cli_runs_pin_one_verify_thread(monkeypatch):
    monkeypatch.setenv("CREMONA_THREADS", "2")
    assert ops.Runner("cli_session", str(run.ROOT)).env["CREMONA_THREADS"] == "1"
    runner = ops.Runner("cli_session", str(run.ROOT), in_process_cli=True)
    seen = []

    def main(argv):
        seen.append(os.environ["CREMONA_THREADS"])
        return 0

    monkeypatch.setattr(runner.cli, "main", main)
    runner.run({"kind": "verify", "argv": ["verify"]})
    assert seen == ["1"]


def test_correct_answers_pass():
    for workload in ("nef_stream", "cone_audit"):
        _, loop = loop_for(workload)
        for op in small(inputs.make_cycle(workload, 2), 10):
            loop.run_op(op)
        assert loop.failed == 0, loop.failures


def test_corrupted_witness_fails(monkeypatch):
    from cremona import serialize

    encode = serialize.encode_verdict

    def corrupt(verdict):
        out = encode(verdict)
        if verdict.is_nef():
            out["witness"] = out["witness"][: len(out["witness"]) // 2]
        return out

    runner, loop = loop_for("nef_stream")
    monkeypatch.setattr(runner.serialize, "encode_verdict", corrupt)
    deep = [op for op in inputs.make_cycle("nef_stream", 1)
            if op["expect"] == "nef" and op["n"] <= 12 and 50 <= op["depth"] <= 500]
    for op in deep[:5]:
        loop.run_op(op)
    assert loop.failed > 0


def test_dropped_ray_fails(monkeypatch):
    runner, loop = loop_for("cone_audit")
    rays = runner.cremona.extremal_rays
    monkeypatch.setattr(runner.cremona, "extremal_rays", lambda P: rays(P)[:-1])
    loop.run_op({"kind": "rays", "n": 10})
    assert loop.failed == 1


def test_checker_rejects_wrong_counts_and_verdicts():
    op = inputs.make_cycle("nef_stream", 4)[0]
    flipped = "not_nef" if op["expect"] == "nef" else "nef"
    with pytest.raises(checks.CheckFailed):
        checks.check_nef_verdict(op, {"verdict": flipped, "method": "reduction_exact",
                                      "witness": []})
    with pytest.raises(checks.CheckFailed):
        checks.check_minus_one_list(10, 6, [[0] * 10 + [1]])


def test_measured_latencies_are_scaled_by_their_calibration_loops():
    cycle = small(inputs.make_cycle("nef_stream", 6), 4)
    out = worker.measure("nef_stream", cycle, 0)
    assert len(out["cycles"]) == worker.MIN_CYCLES and out["failed"] == 0
    for scaled, raw, loops in zip(out["cycles"], out["raw_cycles"], out["calibration_s"]):
        assert len(scaled) == len(raw) == len(loops) == len(cycle)
        for s, r, loop_s in zip(scaled, raw, loops):
            assert s == pytest.approx(r * calibration.REFERENCE_S / loop_s)
