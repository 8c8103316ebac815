"""Smoke test of the benchmark: every workload runs on a reduced corpus, in
both modes, passes its checks and emits every metric it declares."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

# printed in the metric table but not gated: error_rate is also the result's
# failed/attempted, and nb_accuracy exists only where there are labels
TABLE_ONLY = {"error_rate": None, "nb_accuracy": "bon-features"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    table = {line.split()[0] for line in lines[:-1] if line.startswith("   ")}
    for name, only in TABLE_ONLY.items():
        if only in (None, workload):
            assert name in table, proc.stdout
    if trace:
        calls = result["metrics"]["lp.solve_calls"]["value"]
        assert (calls == 0) == (workload == "bon-features")
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_no_sources_exits_nonzero(tmp_path):
    """Outside a checkout with src/deepdict the benchmark fails without a result."""
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), bench_dir / name)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "deep-compress",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_child_spans():
    rec = spans.SpanRecorder()
    with rec.span("outer"):
        with rec.span("inner"):
            time.sleep(0.02)
    times = spans.span_times(rec.spans)
    assert rec.spans[1][3] == 0  # inner's parent is outer
    assert times["outer"][0] >= times["inner"][0] > 0.015
    assert times["outer"][1] < 0.01


def test_missing_binding_is_reported_absent(monkeypatch):
    ghost = ("lp.ghost", "deepdict.lp", "no_such_function", None)
    monkeypatch.setattr(spans, "WRAPS", spans.WRAPS + (ghost,))
    import deepdict.pipeline
    original = deepdict.pipeline.compress
    with spans.instrument(spans.SpanRecorder()) as absent:
        assert absent == ["deepdict.lp.no_such_function"]
        assert deepdict.pipeline.compress is not original
    assert deepdict.pipeline.compress is original
    assert spans.absent_metrics(absent, set()) == ["lp.ghost_s"]
