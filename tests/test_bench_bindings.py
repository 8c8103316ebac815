"""The benchmark's traced run wraps functions by module and attribute name
(perfbench/spans.py WRAPS).  A binding that no longer resolves does not
fail the run: its per-layer metrics just read as absent.  So every binding
must name a function that exists."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def test_every_benchmark_binding_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for _, module, attr, _ in spans.WRAPS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
