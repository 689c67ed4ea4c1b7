"""The workload process: imports the program and runs one workload.

    python3 perfbench/worker.py setup   <workload>
    python3 perfbench/worker.py measure <workload> <seconds>   < cycle.json
    python3 perfbench/worker.py trace   <workload> <spans.jsonl> < cycle.json

``setup`` imports ``cremona`` and makes the warm-up calls, then exits;
the parent times it from spawn to exit, and the worker prints the
calibration loop times it took before the import and after the warm-up.
``measure`` runs whole cycles until ``seconds`` have passed, one
operation at a time (a closed loop with one client), and prints
per-operation latencies, as measured and at the reference speed.  ``trace`` runs
one cycle untraced and the same cycle traced, and prints the per-module
figures.  Every mode prints one JSON object as its last line.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import ops  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracer import Tracer  # noqa: E402

IMPORT_PROBES = 3
# Each operation's latency is its median over the cycles of a run.
MIN_CYCLES = 3


class Loop:
    """Runs operations one after another and checks each result untimed."""

    def __init__(self, runner: ops.Runner):
        self.runner = runner
        self.latencies: list[float] = []  # as measured
        self.scaled: list[float] = []  # at the reference speed (calibration.py)
        self.calibration_s: list[float] = []  # mean of each operation's two loop times
        self.verified: dict[int | None, bytes] = {}
        self.failed = 0
        self.failures: list[str] = []

    def run_op(self, op: dict, key: int | None = None) -> float:
        """Time one operation, then check its result untimed.  With a `key`,
        a result identical to one already checked under that key passes
        without the full check.  Returns the latency as measured."""
        before = calibration.loop_seconds()
        start = time.perf_counter()
        try:
            result, error = self.runner.run(op), None
        except Exception as exc:  # a raising operation is a failed operation
            result, error = None, exc
        elapsed = time.perf_counter() - start
        loop_s = (before + calibration.loop_seconds()) / 2
        self.latencies.append(elapsed)
        self.scaled.append(calibration.scale(elapsed, loop_s))
        self.calibration_s.append(loop_s)
        if error is not None:
            self._fail(op, f"raised {error!r}")
        else:
            fingerprint = hashlib.sha256(repr(result).encode()).digest()
            if key is None or self.verified.get(key) != fingerprint:
                try:
                    self.runner.check(op, result)
                    self.verified[key] = fingerprint
                except CheckFailed as exc:
                    self._fail(op, str(exc))
                except Exception as exc:  # a malformed result the checks could not read
                    self._fail(op, f"check raised {exc!r}")
        return elapsed

    def _fail(self, op: dict, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{op['kind']}: {reason}")

    def run_cycles(self, cycle: list[dict], seconds: float) -> None:
        """Whole cycles, at least MIN_CYCLES, until `seconds` of wall time have passed."""
        start = time.perf_counter()
        cycles = 0
        while cycles < MIN_CYCLES or time.perf_counter() - start < seconds:
            for i, op in enumerate(cycle):
                self.run_op(op, i)
            cycles += 1


def by_cycle(values: list[float], size: int) -> list[list[float]]:
    return [values[i:i + size] for i in range(0, len(values), size)]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def import_seconds() -> float:
    """Median time of `import cremona` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import cremona; print(time.perf_counter() - t)")
    times = sorted(
        float(subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], check=True,
                             capture_output=True, text=True, timeout=60).stdout)
        for _ in range(IMPORT_PROBES))
    return times[len(times) // 2]


def measure(workload: str, cycle: list[dict], seconds: float) -> dict:
    runner = ops.Runner(workload, str(ROOT))
    runner.warm_up()
    loop = Loop(runner)
    loop.run_cycles(cycle, seconds)
    size = len(cycle)
    return {"cycles": by_cycle(loop.scaled, size),
            "raw_cycles": by_cycle(loop.latencies, size),
            "calibration_s": by_cycle(loop.calibration_s, size),
            "failed": loop.failed, "failures": loop.failures,
            "peak_rss_mb": peak_rss_mb(children=workload == "cli_session")}


def trace(workload: str, cycle: list[dict], spans_path: str) -> dict:
    """One untraced cycle, then the same cycle traced; per-module figures."""
    runner = ops.Runner(workload, str(ROOT), in_process_cli=True)
    runner.warm_up()
    untraced = Loop(runner)
    for op in cycle:
        untraced.run_op(op)
    runner.bytes_out = runner.stdout_bytes = 0
    tracer = Tracer()
    traced = Loop(runner)
    op_wall: dict[int, float] = {}
    tracer.install()
    try:
        for index, op in enumerate(cycle):
            tracer.op = index
            op_wall[index] = traced.run_op(op)
    finally:
        tracer.remove()
    metrics = tracer.layer_metrics()
    metrics.update({
        "serialize.bytes_out": runner.bytes_out,
        "cli.stdout_bytes": runner.stdout_bytes,
        "cli.import_s": import_seconds(),
        "trace.overhead": sum(traced.scaled) / sum(untraced.scaled),
    })
    with open(spans_path, "w") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    return {"metrics": metrics, "attempted": len(traced.latencies) + len(untraced.latencies),
            "failed": traced.failed + untraced.failed,
            "failures": untraced.failures + traced.failures,
            "spans": len(tracer.spans), "spans_dropped": tracer.dropped,
            "op_self_s": {str(k): v for k, v in tracer.op_self_s.items()},
            "op_wall_s": {str(k): v for k, v in op_wall.items()}}


def main(argv: list[str]) -> int:
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        before = calibration.loop_seconds()
        ops.Runner(workload, str(ROOT)).warm_up()
        sys.stdout.write(json.dumps({"loop_s": [before, calibration.loop_seconds()]}) + "\n")
        return 0
    cycle = json.load(sys.stdin)
    if mode == "measure":
        result = measure(workload, cycle, float(argv[2]))
    else:
        result = trace(workload, cycle, argv[2])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
