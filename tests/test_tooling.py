import importlib
import importlib.util
import os
import sys

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def test_traced_functions_exist(monkeypatch):
    # the benchmark's tracer skips a traced function that is gone, which
    # would drop its per-layer metrics without an error
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, function, _ in spans.TARGETS:
        home = importlib.import_module("rhmsp." + module)
        assert callable(getattr(home, function, None)), (module, function)
