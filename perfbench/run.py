"""Benchmark of the ``sf`` command line: four closed-loop workloads.

    python3 perfbench/run.py --workload verify-census --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the library from ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  A wrong answer
prints ``"correct": false`` and exits 1; a checkout without the library
exits 2 without a result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import per_layer_units  # noqa: E402

WORKLOADS = tuple(workloads.VERIFY) + workloads.STREAMS
SETUP_SPAWNS = 9
CHILD_TIMEOUT = 150


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup() -> float:
    """Median time for a fresh interpreter to start and import the CLI."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls with sleeps of up to 50 ms,
        # which would round the figure to that step.
        subprocess.run([sys.executable, "-c", "import stirling_forests.cli"],
                       env=child_env(), cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def worker(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: worker {args} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: float) -> float:
    """Quantile interpolated between the two nearest ranks (numpy's default),
    so a quantile that falls between two operations averages their noise."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ---------------------------------------------------------------------------
# verify workloads: one fresh interpreter per ``sf verify`` call


def verify_problems(workload: str, result: dict) -> list[str]:
    expected = workloads.VERIFY[workload]["reports"]
    problems = []
    if result["error"] or result["status"] != 0:
        problems.append(f"sf verify ended with status {result['status']} error {result['error']}")
    if result["reports"] != expected:
        problems.append(f"{result['reports']} reports, expected {expected}")
    if result["passing"] != result["reports"]:
        problems.append(f"{result['reports'] - result['passing']} reports did not pass")
    return problems


def run_verify(workload: str, seconds: float) -> tuple[dict, list[str], int, int]:
    expected = workloads.VERIFY[workload]["reports"]
    calls, spans = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        calls.append(worker("verify", workload, "timed"))
        spans.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(spans) > seconds:
            break
    problems = [p for c in calls for p in verify_problems(workload, c)]
    if len({c["digest"] for c in calls}) != 1:
        problems.append("repeated sf verify calls printed different outputs")
    attempted = expected * len(calls)
    ok = sum(min(c["passing"], expected) for c in calls if c["status"] == 0)
    walls = [c["scaled_s"] for c in calls]
    wall = statistics.median(walls)
    busy = sum(walls)
    print(f"{workload}: {len(calls)} calls, raw wall {[round(c['wall_s'], 3) for c in calls]} s, "
          f"scaled {[round(w, 3) for w in walls]} s")
    metrics = {
        "wall_s": (wall, "s"),
        # every report of a call is delivered when the call returns
        "op_p50_ms": (wall * 1000, "ms"),
        "op_p90_ms": (quantile(walls, 0.9) * 1000, "ms"),
        "ok_ops_per_s": (ok / busy, "1/s"),
        "ok_ratio": (ok / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in calls), "MB"),
    }
    return metrics, problems, attempted, attempted - ok


def trace_verify(workload: str) -> tuple[dict, list[str], int, int]:
    plain = worker("verify", workload, "plain")
    traced = worker("verify", workload, "traced")
    problems = verify_problems(workload, plain) + verify_problems(workload, traced)
    if plain["digest"] != traced["digest"]:
        problems.append("traced and untraced sf verify printed different outputs")
    problems += trace_problems(traced["trace"])
    metrics = layer_metrics(traced["trace"], traced["wall_s"], plain["wall_s"])
    attempted = workloads.VERIFY[workload]["reports"]
    return metrics, problems, attempted, attempted - min(traced["passing"], attempted)


# ---------------------------------------------------------------------------
# streams: one fresh interpreter runs whole rounds of seeded inputs


def stream_tally(ops: list[dict]) -> tuple[list[str], collections.Counter]:
    wrong = [op["wrong"] for op in ops if op["wrong"]]
    errors = collections.Counter(op["error"] for op in ops if op["error"])
    errors.update("WrongAnswer" for _ in wrong)
    return wrong, errors


def run_stream(workload: str, seed: int, seconds: float) -> tuple[dict, list[str], int, int]:
    result = worker("stream", workload, seed, seconds, 0, "timed")
    ops = result["ops"]
    wrong, errors = stream_tally(ops)
    failed = sum(errors.values())
    ok = len(ops) - failed
    scaled = [op["scaled_ms"] for op in ops]
    rounds = collections.Counter()
    for op, ms in zip(ops, scaled):
        rounds[op["round"]] += ms / 1000
    # A failed operation misses every latency limit: it counts as taking the
    # whole run, longer than any operation that succeeds.
    worst = seconds * 1000
    latencies = [worst if op["error"] or op["wrong"] else ms for op, ms in zip(ops, scaled)]
    print(f"{workload}: {len(ops)} operations in {len(rounds)} rounds, "
          f"{failed} failed {dict(errors)}, fail_ratio {failed / len(ops):.4f}; "
          f"raw busy {sum(op['ms'] for op in ops) / 1000:.3f} s, "
          f"scaled {sum(scaled) / 1000:.3f} s")
    metrics = {
        "wall_s": (statistics.median(rounds.values()), "s"),
        "op_p50_ms": (quantile(latencies, 0.5), "ms"),
        "op_p90_ms": (quantile(latencies, 0.9), "ms"),
        "ok_ops_per_s": (ok * 1000 / sum(scaled), "1/s"),
        "ok_ratio": (ok / len(ops), "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return metrics, wrong, len(ops), failed


def trace_stream(workload: str, seed: int) -> tuple[dict, list[str], int, int]:
    plain = worker("stream", workload, seed, 0, 1, "plain")
    traced = worker("stream", workload, seed, 0, 1, "traced")
    wrong, errors = stream_tally(traced["ops"])
    problems = wrong + stream_tally(plain["ops"])[0] + trace_problems(traced["trace"])
    outcome = [(op["digest"], op["error"]) for op in plain["ops"]]
    if outcome != [(op["digest"], op["error"]) for op in traced["ops"]]:
        problems.append("traced and untraced operations printed different outputs")
    metrics = layer_metrics(traced["trace"], busy_s(traced), busy_s(plain))
    return metrics, problems, len(traced["ops"]), sum(errors.values())


def busy_s(result: dict) -> float:
    return sum(op["ms"] for op in result["ops"]) / 1000


# ---------------------------------------------------------------------------
# tracing


def trace_problems(trace: dict) -> list[str]:
    """The spans' self times must add up to the traced wall time, leaving the
    benchmark's own share non-negative."""
    problems = []
    gap = abs(trace["accounted_s"] - trace["wall_s"])
    if gap > 1e-3 * trace["wall_s"] + 1e-6:
        problems.append(f"self times account for {trace['accounted_s']:.4f} s "
                        f"of {trace['wall_s']:.4f} s traced")
    if trace["metrics"]["bench.self_s"] < -1e-6:
        problems.append("spans cover more than the traced wall time")
    return problems


def layer_metrics(trace: dict, traced_s: float, untraced_s: float) -> dict:
    values = dict(trace["metrics"])
    values["trace.overhead"] = traced_s / untraced_s
    values["trace.traced_s"] = traced_s
    values["trace.untraced_s"] = untraced_s
    print(f"traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s "
          f"(overhead x{values['trace.overhead']:.3f}); phi called from "
          f"{trace['top_parents_of_phi']}")
    return {name: (values[name], unit) for name, unit in per_layer_units().items()}


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "stirling_forests" / "cli.py").is_file():
        print(f"perfbench: no library at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    is_verify = args.workload in workloads.VERIFY
    if args.trace:
        if is_verify:
            metrics, problems, attempted, failed = trace_verify(args.workload)
        else:
            metrics, problems, attempted, failed = trace_stream(args.workload, args.seed)
    else:
        setup = measure_setup()
        if is_verify:
            metrics, problems, attempted, failed = run_verify(args.workload, args.seconds)
        else:
            metrics, problems, attempted, failed = run_stream(
                args.workload, args.seed, args.seconds)
        metrics = {"setup_s": (setup, "s"), **metrics}
    for problem in problems:
        print(f"perfbench: WRONG: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
