import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import threading

import numpy as np

import rhmsp

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_functions_exist(monkeypatch):
    # the benchmark's tracer skips a traced function that is gone, which
    # would drop its per-layer metrics without an error
    spans = _load_spans(monkeypatch)
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


def test_traced_functions_run_on_the_main_thread(monkeypatch):
    # the tracer keeps one span stack that is not thread-safe: LePage
    # synthesis may use worker threads only for code it does not trace
    spans = _load_spans(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    calls = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "rhmsp" or n.startswith("rhmsp."))]
    for module, function, _ in spans.TARGETS:
        original = getattr(importlib.import_module("rhmsp." + module), function)

        def recording(*args, _fn=original, _name=function, **kwargs):
            calls.append((_name, threading.current_thread()))
            return _fn(*args, **kwargs)

        for home in modules:
            for key, value in list(vars(home).items()):
                if value is original:
                    monkeypatch.setattr(home, key, recording)
    from rhmsp import lepage
    from rhmsp.model import KernelVariant, ProcessSpec, StabilityIndex, parse_hurst
    step_threads = set()
    step = lepage.phase_step

    def recording_step(*args):
        step_threads.add(threading.current_thread())
        return step(*args)

    monkeypatch.setattr(lepage, "phase_step", recording_step)
    hurst = parse_hurst("sine:0.55,0.1,2,0.3", 4.0)
    lepage.sample_paths(ProcessSpec(StabilityIndex(1.5), hurst, KernelVariant.X, 4.0),
                        np.linspace(0.0, 1.0, 9), 6,
                        lepage.LePageConfig(terms=200, tail_compensation=True))
    names = {name for name, _ in calls}
    assert {"sample_paths", "_tail_variance_profile", "eval_kernel"} <= names
    assert all(thread is threading.main_thread() for _, thread in calls)
    assert threading.main_thread() not in step_threads    # the paths did go to workers


def test_import_leaves_scipy_ndimage_out():
    # only `analysis.holder_slope` uses scipy.ndimage, and loading it adds
    # about 0.05 s to every process start, so it is imported there
    src = os.path.dirname(os.path.dirname(os.path.abspath(rhmsp.__file__)))
    code = "import sys, rhmsp; print('scipy.ndimage' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"
