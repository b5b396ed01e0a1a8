"""One workload pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py verify <workload> <mode>
    python3 perfbench/worker.py stream <workload> <seed> <seconds> <rounds> <mode>

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src``.  A fresh interpreter per pass means the library's word and forest
caches start empty, as they do for every ``sf`` call.  A stream pass runs
whole rounds of inputs: exactly ``rounds`` of them when that is positive,
otherwise as many as fit in ``seconds`` (at least one).

``mode`` is ``timed``, ``plain`` or ``traced``.  A timed pass runs a
``SpeedSampler`` beside the work and reports every span both raw and scaled
to nominal machine speed.  A traced pass installs the tracer, and a plain
pass is its untraced twin: neither runs the sampler, so they time the same
thing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import threading
import time

import workloads
from tracer import Tracer

# The shared machines this runs on drift in speed by 15% and more within a
# minute, for every process alike.  A scaled time is what the span would have
# taken on a machine where the probe loop takes NOMINAL_PROBE_S.
NOMINAL_PROBE_S = 0.010
PROBE_LOOPS = 100_000
PROBE_INTERVAL_S = 0.5
MIN_PROBES = 3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def speed_probe() -> float:
    """CPU seconds this thread needs for a fixed integer loop right now.

    The loop allocates no containers, so it neither triggers the collector
    nor depends on what the library left on the heap.
    """
    start = time.thread_time()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFF
    return time.thread_time() - start


class SpeedSampler:
    """A thread that runs ``speed_probe`` every PROBE_INTERVAL_S.

    The probe holds the interpreter lock while it runs, so the main thread
    loses that time; ``span`` takes it back out of the span it measured.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.total = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        while len(self.probes) < MIN_PROBES:
            time.sleep(PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            spent = speed_probe()
            self.probes.append(spent)
            self.total += spent

    def mark(self) -> tuple[int, float]:
        return len(self.probes), self.total

    def span(self, mark: tuple[int, float], raw_s: float) -> float:
        """Scaled seconds of a span that started at ``mark`` and took raw_s.

        The speed is the mean of the probes that ran during the span, or of
        the last MIN_PROBES when fewer did.
        """
        first, total = mark
        last = len(self.probes)
        probes = self.probes[min(first, last - MIN_PROBES):last]
        busy = raw_s - (self.total - total)
        return busy * NOMINAL_PROBE_S * len(probes) / sum(probes)


def verify_pass(sf, workload: str, tracer: Tracer | None,
                sampler: SpeedSampler | None) -> dict:
    spec = workloads.VERIFY[workload]
    out = io.StringIO()
    error = None
    status = None
    if tracer:
        tracer.start()
    mark = sampler.mark() if sampler else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            status = sf(list(spec["argv"]))
    except Exception as exc:  # counted as a failed call, never hidden
        error = type(exc).__name__
    wall = time.perf_counter() - start
    scaled = sampler.span(mark, wall) if sampler else wall
    if tracer:
        tracer.stop()
    text = out.getvalue()
    reports = passing = 0
    for line in text.splitlines():
        reports += 1
        try:
            passing += json.loads(line).get("pass") is True
        except ValueError:
            pass
    return {
        "wall_s": wall,
        "scaled_s": scaled,
        "status": status,
        "error": error,
        "reports": reports,
        "passing": passing,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }


def stream_pass(sf, workload: str, seed: int, seconds: float, rounds: int,
                tracer: Tracer | None, sampler: SpeedSampler | None) -> dict:
    make_round, operation = workloads.ROUNDS[workload], workloads.OPERATIONS[workload]
    ops = []
    elapsed = 0.0
    index = 0
    if tracer:
        tracer.start()
    while True:
        items = make_round(seed, index)
        round_start = time.perf_counter()
        for item in items:
            error = wrong = None
            output = ""
            mark = sampler.mark() if sampler else None
            start = time.perf_counter()
            try:
                output = operation(sf, item)
            except workloads.WrongAnswer as exc:
                wrong = str(exc)
            except Exception as exc:  # RecursionError included: a failed op
                error = type(exc).__name__
            spent = time.perf_counter() - start
            ops.append({
                "round": index,
                "ms": spent * 1000,
                "scaled_ms": (sampler.span(mark, spent) if sampler else spent) * 1000,
                "error": error,
                "wrong": wrong and f"{wrong} on {json.dumps(item)[:300]}",
                "digest": hashlib.sha256(output.encode()).hexdigest()[:16],
            })
        elapsed += time.perf_counter() - round_start
        index += 1
        if rounds > 0:
            if index >= rounds:
                break
        elif elapsed + elapsed / index > seconds:
            break
    if tracer:
        tracer.stop()
    return {"ops": ops}


def main(argv: list[str]) -> int:
    kind, workload, mode = argv[0], argv[1], argv[-1]
    from stirling_forests.cli import main as sf

    tracer = sampler = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
        from stirling_forests import cli

        sf = cli.main
    elif mode == "timed":
        sampler = SpeedSampler()
    with sampler or contextlib.nullcontext():
        if kind == "verify":
            result = verify_pass(sf, workload, tracer, sampler)
        else:
            seed, seconds, rounds = int(argv[2]), float(argv[3]), int(argv[4])
            result = stream_pass(sf, workload, seed, seconds, rounds, tracer, sampler)
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        result["trace"] = tracer.report()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
