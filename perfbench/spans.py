"""Outside-in span tracing for the benchmark.

The traced run replaces each layer's public functions, in the namespace of
the module that calls them, with a wrapper that records a span: name,
start, end and parent.  Spans stay in memory and are turned into per-layer
metrics after each pass; nothing inside the program changes.

A layer's self time is its span durations minus the time its direct child
spans cover.  A binding that no longer exists (a function renamed or moved
by a later change) is reported as absent, and the metrics that depend only
on absent bindings read 0 and are listed as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time


def _lp_size(rec, args, result):
    rows = result.program.rows
    if hasattr(rows, "nnz"):  # scipy.sparse
        nbytes = sum(getattr(rows, part).nbytes
                     for part in ("data", "indices", "indptr", "row", "col")
                     if hasattr(rows, part))
        nnz = rows.nnz
    else:
        nbytes = rows.nbytes
        nnz = int((rows != 0).sum())
    rec.peak("lp.rows", rows.shape[0])
    rec.peak("lp.cols", rows.shape[1])
    rec.peak("lp.nnz", nnz)
    rec.peak("lp.matrix_mb", nbytes / 2**20)


def _lp_iterations(rec, args, result):
    rec.add("lp.iterations", result.basis_summary["iterations"])


def _prune_gain(rec, args, result):
    rec.add("lp.prune_gain", args[0].objective - result.objective)


def _candidates(rec, args, result):
    rec.add("corpus.candidates", len(result))


def _pointers(rec, args, result):
    doc_ptrs, dict_ptrs = result
    rec.add("model.doc_pointers", len(doc_ptrs))
    rec.add("model.dict_pointers", len(dict_ptrs))


def _xhat_nnz(rec, args, result):
    rec.add("features.xhat_nnz", result.nnz)


def _nb_accuracy(rec, args, result):
    rec.add("learn.nb_accuracy", result["nb_accuracy"])


# (span name, module whose namespace the caller looks the function up in,
# attribute, counter).  A span name bound in two namespaces has two callers.
WRAPS = (
    ("pipeline.compress", "deepdict.pipeline", "compress", None),
    ("pipeline.fallback", "deepdict.pipeline", "_shallow_rounding", None),
    ("pipeline.bon", "deepdict.pipeline", "bon_compress", None),
    ("corpus.ingest", "deepdict.corpus", "ingest", None),
    ("corpus.enumerate", "deepdict.pipeline", "enumerate_candidates", _candidates),
    ("corpus.classes", "deepdict.lp", "equivalence_classes", None),
    ("model.pointers", "deepdict.model", "build_pointers", _pointers),
    ("model.pointers", "deepdict.pipeline", "build_pointers", _pointers),
    ("lp.assemble", "deepdict.pipeline", "build_lp", _lp_size),
    ("lp.solve", "deepdict.pipeline", "solve_lp", _lp_iterations),
    ("lp.coverable", "deepdict.lp", "check_coverable", None),
    ("lp.round", "deepdict.pipeline", "round_to_compression", None),
    ("lp.prune", "deepdict.lp", "prune_descent", _prune_gain),
    ("lp.validate", "deepdict.pipeline", "compression_errors", None),
    ("recon.dp", "deepdict.lp", "solve_dp", None),
    ("features.top", "deepdict.features", "top_features", None),
    ("features.dict", "deepdict.features", "dict_matrix", None),
    ("features.diffuse", "deepdict.features", "diffuse", _xhat_nnz),
    ("features.dag", "deepdict.features", "dag_export", None),
    ("features.write", "deepdict.features", "write_matrix", None),
    ("learn.resample", "deepdict.learn", "accuracy_over_resamples", _nb_accuracy),
)

# stage spans whose time is reported inclusive of their children; every
# other span reports self time, so self times partition a pass
INCLUSIVE = {"pipeline.compress", "pipeline.fallback", "pipeline.bon"}

COUNTERS = {
    _lp_size: ("lp.rows", "lp.cols", "lp.nnz", "lp.matrix_mb"),
    _lp_iterations: ("lp.iterations",),
    _prune_gain: ("lp.prune_gain",),
    _candidates: ("corpus.candidates",),
    _pointers: ("model.doc_pointers", "model.dict_pointers"),
    _xhat_nnz: ("features.xhat_nnz",),
    _nb_accuracy: ("learn.nb_accuracy",),
}

# span name -> metric name for call counts that are reported
CALL_COUNTS = {"lp.solve": "lp.solve_calls", "lp.validate": "lp.validate_calls",
               "recon.dp": "recon.dp_calls"}


class SpanRecorder:
    """In-memory spans and counters of one pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self.failed_counters: set[str] = set()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = {}
        self._stack = []

    def add(self, metric: str, value: float) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + value

    def peak(self, metric: str, value: float) -> None:
        self.counts[metric] = max(self.counts.get(metric, 0), value)

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start)

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)  # filled in when the span closes
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, start, end, parent)

    def wrap(self, name: str, fn, counter):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = rec._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(sid, name, start)
            if counter is not None:
                try:
                    counter(rec, args, result)
                except (AttributeError, KeyError, TypeError, IndexError, ValueError):
                    rec.failed_counters.update(COUNTERS[counter])
            return result

        return traced


@contextlib.contextmanager
def instrument(rec: SpanRecorder):
    """Install the wrappers for the duration of the block; yields the list
    of absent bindings ("module.attribute")."""
    patched = []
    absent = []
    try:
        for name, module_name, attr, counter in WRAPS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, rec.wrap(name, original, counter))
            patched.append((module, attr, original))
        yield absent
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def span_times(spans) -> dict[str, tuple[float, float, int]]:
    """Per span name: (inclusive seconds, self seconds, calls)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[float, float, int]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        total, own, calls = out.get(name, (0.0, 0.0, 0))
        out[name] = (total + end - start, own + end - start - child[i], calls + 1)
    return out


def absent_metrics(absent_bindings: list[str], failed_counters: set[str]) -> list[str]:
    """Metrics that no present binding can produce."""
    present = {name for name, module, attr, _ in WRAPS
               if f"{module}.{attr}" not in absent_bindings}
    out = set(failed_counters)
    for name, module, attr, counter in WRAPS:
        if name in present:
            continue
        out.add(f"{name}_s")
        if name in CALL_COUNTS:
            out.add(CALL_COUNTS[name])
        if counter is not None:
            out.update(COUNTERS[counter])
    return sorted(out)


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of the pass held in the recorder; a layer that
    did not run reads 0."""
    times = span_times(rec.spans)
    out: dict[str, float] = {}
    for name in dict.fromkeys(w[0] for w in WRAPS):
        total, own, calls = times.get(name, (0.0, 0.0, 0))
        out[f"{name}_s"] = total if name in INCLUSIVE else own
        if name in CALL_COUNTS:
            out[CALL_COUNTS[name]] = calls
    for metrics in COUNTERS.values():
        for metric in metrics:
            out[metric] = rec.counts.get(metric, 0)
    iterations = out["lp.iterations"]
    out["lp.s_per_iteration"] = out["lp.solve_s"] / iterations if iterations else 0.0
    out["trace.spans"] = len(rec.spans)
    return out


def write_spans(path: str, spans) -> None:
    """One JSON object per span; times in seconds from the first span."""
    origin = min((s[1] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, (name, start, end, parent) in enumerate(spans):
            fh.write(json.dumps({"id": sid, "name": name, "start": start - origin,
                                 "end": end - origin, "parent": parent}) + "\n")
