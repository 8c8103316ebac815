"""deepdict benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads in
BENCHMARK.json, or `all` to run every workload one after another.  Each
workload runs in a fresh worker process (perfbench/worker.py) whose peak
RSS is read here when it ends, so one workload cannot inflate another's.
Set-up time is the median over fresh interpreters that only import,
generate and ingest.  Prints every metric with its unit, then, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
THREADS = 1  # BLAS/OpenMP threads; at most nproc
SETUP_PROBES = 9
WORKER_TIMEOUT = 170.0  # seconds; the worker bounds its own passes well below this
EXTRA_UNITS = {"nb_accuracy": "fraction", "error_rate": "fraction"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)  # the worker imports deepdict from ./src only
    return env


def _run_child(args: list[str]) -> tuple[dict, float]:
    """Run the worker; returns its result and its peak RSS in MiB."""
    cmd = [sys.executable, WORKER] + args
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(),
                          cwd=ROOT, text=True) as proc:
        timer = threading.Timer(WORKER_TIMEOUT, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def conditions() -> dict:
    return {"cpu": _cpu_model(), "nproc": os.cpu_count(), "blas_threads": THREADS,
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy")}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 small: bool) -> dict:
    """Worker result for one workload, with peak RSS and set-up time added."""
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--out", os.path.join(OUT, f"{name}-seed{seed}")]
    if small:
        common.append("--small")
    result, peak_mb = _run_child(common)
    setups = [_run_child(common + ["--probe"])[0]["setup_s"]
              for _ in range(SETUP_PROBES)]
    result["metrics"]["peak_rss_mb"] = peak_mb
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def _report(name: str, seed: int, result: dict, units: dict) -> None:
    print(f"== {name} seed={seed}: {result['docs']} docs, {result['symbols']} symbols, "
          f"{result['attempted']} passes attempted, {result['failed']} failed")
    print(f"   pass wall times (s): {result['passes']}")
    if result["traced_passes"]:
        print(f"   traced pass wall times (s): {result['traced_passes']}")
    for error in result["errors"]:
        print(f"   FAILED {error}")
    if result["absent"]:
        print(f"   absent (reported as 0): {', '.join(result['absent'])}")
    metrics = result["metrics"]
    for metric in sorted(metrics):
        print(f"   {metric:<22} {metrics[metric]:>14.6g} {units.get(metric, '')}")


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="reduced corpora, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "deepdict", "__init__.py")):
        print(f"no deepdict sources under {ROOT}/src", file=sys.stderr)
        return 2

    selected = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(EXTRA_UNITS)
    env = conditions()
    print("# conditions: " + json.dumps(env, sort_keys=True))
    workloads = names if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in workloads:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.small)
        except (BenchError, ValueError, KeyError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 3
        _report(name, args.seed, result, units)
        with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(dict(result, conditions=env), fh, indent=1, sort_keys=True)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(workloads) == 1 else f"{name}."
        for metric in selected:
            value = result["metrics"].get(metric["name"], 0)
            metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
