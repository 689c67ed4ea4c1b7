"""cremona benchmark: three seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload nef_stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  With ``--trace 0`` the run reports the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it runs
the same inputs once untraced and once traced and reports the
per-module metrics instead.  Every result is also written, with a run
record, to ``perfbench/results/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import inputs  # noqa: E402

SETUP_PROBES = 9
TAIL_BEYOND = 10  # samples that must lie above the tail percentile
WORKER_TIMEOUT_S = 160


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest nearest-rank percentile
    with at least TAIL_BEYOND samples above it (the maximum when there
    are too few samples for that; every cycle has more)."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def run_record(args, cycle_digest: str) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cremona").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input_digest": cycle_digest,
        "start": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "git_commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }


def worker(*args: str, stdin: str | None = None) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, input=stdin,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} {args[1]} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_seconds(workload: str) -> float:
    """Median over fresh interpreters of spawn, `import cremona` and
    warm-up, each at the reference speed (calibration.py).  The worker
    times the calibration loop itself, before the import and after the
    warm-up, and those two loops are not counted."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        loops = worker("setup", workload)["loop_s"]
        elapsed = time.perf_counter() - start - sum(loops)
        times.append(calibration.scale(elapsed, statistics.mean(loops)))
    return statistics.median(times)


def end_to_end(workload: str, cycle: list[dict], seconds: int) -> tuple[dict, dict]:
    setup = setup_seconds(workload)
    out = worker("measure", workload, str(seconds), stdin=json.dumps(cycle))
    attempted = len(cycle) * len(out["cycles"])
    # Latencies are at the reference speed (calibration.py).  Throughput
    # counts every timed operation of every cycle; for the latency
    # metrics each operation's latency is its median over the cycles.
    lat = [statistics.median(op) for op in zip(*out["cycles"])]
    tail, percentile, samples = tail_latency(lat)
    values = {
        "ops_per_s": attempted / sum(map(sum, out["cycles"])),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * tail,
        "pass_rate": 1 - out["failed"] / attempted,
        "setup_s": setup,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    detail = {"attempted": attempted, "failed": out["failed"], "failures": out["failures"],
              "fail_rate": out["failed"] / attempted, "cycles": len(out["cycles"]),
              "tail_percentile": percentile, "tail_samples": samples,
              "latencies_by_cycle": out["cycles"], "raw_latencies_by_cycle": out["raw_cycles"],
              "calibration_s_by_cycle": out["calibration_s"]}
    return values, detail


def traced(workload: str, cycle: list[dict], seed: int) -> tuple[dict, dict]:
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{workload}-seed{seed}.jsonl"
    out = worker("trace", workload, str(spans), stdin=json.dumps(cycle))
    detail = {k: out[k] for k in ("attempted", "failed", "failures", "spans", "spans_dropped")}
    detail["fail_rate"] = out["failed"] / out["attempted"]
    return out["metrics"], detail


def run_one(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cycle = inputs.make_cycle(args.workload, args.seed)
    record = run_record(args, inputs.digest(cycle))
    if args.trace:
        values, detail = traced(args.workload, cycle, args.seed)
        wanted = spec["per_layer"]
    else:
        values, detail = end_to_end(args.workload, cycle, args.seconds)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        raise SystemExit(f"metric set differs from BENCHMARK.json: {sorted(set(values) ^ set(names))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": detail["failed"] == 0, "attempted": detail["attempted"],
              "failed": detail["failed"], "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"run": record, "detail": detail, **result}, indent=1) + "\n")

    print(f"# {args.workload}  seed {args.seed}  inputs {record['input_digest']}  "
          f"{detail['attempted']} ops, {detail['failed']} failed "
          f"(fail_rate {detail['fail_rate']:.4g})")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        raw = sum(map(sum, detail["raw_latencies_by_cycle"]))
        scaled = sum(map(sum, detail["latencies_by_cycle"]))
        print(f"  latency_tail_ms is p{detail['tail_percentile']:.2f} of "
              f"{detail['tail_samples']} samples; {detail['cycles']} cycles; measured "
              f"times were {raw / scaled:.3f}x the reference-speed times")
    for reason in detail["failures"]:
        print(f"  FAILED {reason}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.GENERATORS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cremona" / "__init__.py").is_file():
        sys.stderr.write(f"no cremona sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    # One CPU for this process and every process it starts, so that the
    # calibration loops run on the CPU that runs the timed work (a CLI
    # child included) and measure the speed it had.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload != "all":
        print(json.dumps(run_one(args)))
        return 0
    results = {}
    for workload in inputs.GENERATORS:
        results[workload] = run_one(argparse.Namespace(**{**vars(args), "workload": workload}))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
