import ast
import importlib
import importlib.util
import os
import sys

import rhmsp

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


def test_package_reexports_are_public():
    # every name the package imports from a submodule is in that
    # submodule's __all__, so `from rhmsp.<module> import *` agrees with it
    with open(rhmsp.__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        public = importlib.import_module("rhmsp." + node.module).__all__
        for alias in node.names:
            assert alias.name in public, (node.module, alias.name)
