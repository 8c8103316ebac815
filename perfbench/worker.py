"""One workload in a fresh process: set-up, timed passes, checks.

Started by run.py, which reads this process's peak RSS when it ends.  Prints
one JSON object as its last line.  With --probe it only times set-up
(import, generate, ingest) and prints that.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import signal
import statistics
import sys
import time
import traceback

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PASS_TIMEOUT = 45.0  # seconds; a longer pass counts as failed
CHECK_TIMEOUT = 30.0
MIN_PASSES = 2  # two passes to compare; a traced run needs one of each kind


class Timeout(BaseException):
    """Raised by the alarm; a BaseException so the program cannot swallow it."""


def _alarm(signum, frame):
    raise Timeout()


def guarded(fn, timeout: float):
    """(value, error): an exception or a timeout becomes an error string."""
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn(), None
    except Timeout:
        return None, f"timed out after {timeout:.0f} s"
    except Exception as exc:  # any failure of the program counts, not aborts
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def import_program():
    """Import the program from this checkout's src/ and never from an
    installed copy."""
    sys.path.insert(0, SRC)
    import workloads  # imports deepdict
    import deepdict
    if os.path.dirname(os.path.dirname(os.path.abspath(deepdict.__file__))) != SRC:
        raise ImportError(f"deepdict imported from {deepdict.__file__}, not {SRC}")
    return workloads


class Runner:
    """Runs passes of one workload.  With a recorder, every second pass is
    traced, so traced and untraced passes see the same machine."""

    def __init__(self, workload, out_dir: str, recorder=None) -> None:
        self.workload = workload
        self.out_dir = out_dir
        self.recorder = recorder
        self.first = None
        self.walls: list[float] = []  # untraced passes
        self.traced_walls: list[float] = []
        self.layers: list[dict] = []  # per-layer metrics of each traced pass
        self.absent: list[str] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: dict = {}

    @contextlib.contextmanager
    def _tracing(self, traced: bool):
        if not traced:
            yield
            return
        self.recorder.reset()
        with spans.instrument(self.recorder) as self.absent, self.recorder.span("pass"):
            yield

    def one_pass(self, traced: bool = False) -> float | None:
        """Run, time and check one pass; returns its wall time, or None
        when it failed."""
        self.attempted += 1
        pass_dir = os.path.join(self.out_dir, f"pass{self.attempted}")
        os.makedirs(pass_dir, exist_ok=True)
        gc.collect()  # every pass starts from the same heap state
        with self._tracing(traced):
            start = time.perf_counter()
            out, error = guarded(lambda: self.workload.run_pass(pass_dir), PASS_TIMEOUT)
            wall = time.perf_counter() - start
        errors = [error] if error else []
        if out is not None:
            errors += self._check(out)
        if errors:
            self.failed += 1
            self.errors += [f"pass {self.attempted}: {e}" for e in errors]
            return None
        if traced:
            self.traced_walls.append(wall)
            self.layers.append(spans.layer_metrics(self.recorder))
        else:
            self.walls.append(wall)
        return wall

    def _check(self, out) -> list[str]:
        out.hash_files()
        if self.first is None:
            errors, error = guarded(lambda: self.workload.check(out), CHECK_TIMEOUT)
            errors = list(errors or []) + ([f"check {error}"] if error else [])
            out.detail = None
            self.first = out
            self.metrics.update(out.metrics)
            return errors
        out.detail = None
        return out.differences(self.first)

    def loop(self, budget: float) -> None:
        """Passes until the next would end past `budget` seconds of timed
        work, at least MIN_PASSES; stops at the first failure."""
        spent = 0.0
        for done in itertools.count(1):
            traced = self.recorder is not None and done % 2 == 0
            wall = self.one_pass(traced)
            if wall is None:
                return
            spent += wall
            if done >= MIN_PASSES and spent + wall > budget:
                return


def traced_metrics(runner: Runner, ingest_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over the traced passes (counts are equal
    in every pass), the tracing overhead, and the absent metrics as 0."""
    metrics = {}
    for name in runner.layers[0] if runner.layers else ():
        metrics[name] = statistics.median(p[name] for p in runner.layers)
    metrics["corpus.ingest_s"] = ingest_s
    if runner.walls and runner.traced_walls:
        metrics["trace.wall_s"] = statistics.median(runner.traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(runner.walls)
    missing = spans.absent_metrics(runner.absent, runner.recorder.failed_counters)
    for name in missing:
        metrics[name] = 0
    if runner.recorder.spans:
        spans.write_spans(os.path.join(runner.out_dir, "spans.jsonl"),
                          runner.recorder.spans)
    return metrics, missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    workloads = import_program()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.small)
    workload.setup()
    if args.probe:
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    os.makedirs(args.out, exist_ok=True)
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        with spans.instrument(recorder), recorder.span("setup"):
            workload.setup()  # again, under the wrappers, to time the corpus layer
        ingest_s = spans.span_times(recorder.spans).get("corpus.ingest", (0.0, 0.0, 0))[1]
    runner = Runner(workload, args.out, recorder)
    runner.loop(args.seconds)
    metrics = dict(runner.metrics)
    symbols = workload.corpus.total_symbols
    if runner.walls:
        wall = statistics.median(runner.walls)
        metrics["wall_s"] = wall
        metrics["symbols_per_s"] = symbols / wall
    metrics["error_rate"] = runner.failed / runner.attempted
    missing = []
    if args.trace:
        layers, missing = traced_metrics(runner, ingest_s)
        metrics.update(layers)
    print(json.dumps({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors[:10],
        "passes": [round(w, 4) for w in runner.walls],
        "traced_passes": [round(w, 4) for w in runner.traced_walls],
        "docs": len(workload.corpus.docs),
        "symbols": symbols,
        "params": dict(workload.params, docs=workload.docs),
        "absent": missing,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
