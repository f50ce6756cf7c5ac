"""Per-layer spans around the entry points of `rhmsp`, for the traced run.

`Tracer.install` replaces each traced function, in every `rhmsp` module that
holds it (callers import them by name), by a wrapper that records a span:
its name, its start and end, and the span open around it.  Spans stay in
memory; `layer_metrics` folds them into the per-layer metrics and
`uninstall` puts the original functions back.  A function that no longer
exists is skipped, and the metrics built on it are left out.
"""

import sys
import time
from collections import defaultdict

# (module, function, span name)
TARGETS = (
    ("quad", "integrate_even_singular", "ies"),
    ("quad", "oscillatory_ft", "osc_ft"),
    ("norms", "_raw_norm_integral", "raw"),
    ("norms", "_grad_component", "grad"),
    ("model", "eval_kernel", "kernel"),
    ("lepage", "sample_paths", "sample"),
    ("lepage", "_tail_variance_profile", "tailvar"),
    ("localtime", "local_time_second_moment", "m2"),
    ("localtime", "occupation_histogram", "hist"),
    ("analysis", "lnd_study", "lnd"),
    ("analysis", "localizability_error", "localize"),
    ("analysis", "holder_slope", "holder"),
    ("analysis", "ft_check", "ft"),
)

NEAR_DIAGONAL_GAP = 1.0 / 16.0


class _Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "child_n", "work")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = defaultdict(float)   # descendant time by span name
        self.child_n = defaultdict(int)     # descendant count by span name
        self.work = 0
        self.start = time.perf_counter()


def _work(name, args, kwargs, result):
    """Work size recorded on a span: integrand evaluations for the engine,
    path x grid x term products for LePage synthesis."""
    if name == "ies":
        return int(getattr(result, "evaluations", 0))
    if name == "sample":
        grid, count = args[1], args[2]
        config = args[3] if len(args) > 3 else kwargs.get("config")
        terms = config.terms if config is not None else 5000
        return int(count) * len(grid) * int(terms)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.time_sets = defaultdict(int)   # raw-norm calls per distinct time tuple
        self.near_diagonal = 0
        self.kernel_calls = 0
        self.kernel_s = 0.0
        self._open = []
        self._restore = []

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            span = _Span(name, parent)
            tracer._open.append(span)
            try:
                result = fn(*args, **kwargs)
                span.work = _work(name, args, kwargs, result)
                return result
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
                tracer._close(span, args)
        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, span, args):
        duration = span.end - span.start
        ancestor = span.parent
        while ancestor is not None:
            ancestor.child_s[span.name] += duration
            ancestor.child_n[span.name] += 1
            ancestor = ancestor.parent
        if span.name == "raw":
            times = tuple(float(t) for t in args[1])
            self.time_sets[times] += 1
            if len(times) > 1 and min(b - a for a, b in zip(times, times[1:])) < NEAR_DIAGONAL_GAP:
                self.near_diagonal += 1
        if span.name == "kernel":   # one per grid point: keep totals only
            self.kernel_calls += 1
            self.kernel_s += duration
        else:
            self.spans.append(span)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rhmsp" or n.startswith("rhmsp."))]
        for mod_name, attr, name in TARGETS:
            home = sys.modules.get("rhmsp." + mod_name)
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore = []

    def present(self):
        """Span names whose function exists in this version of the program."""
        return {name for mod_name, attr, name in TARGETS
                if getattr(sys.modules.get("rhmsp." + mod_name), attr, None) is not None}


def layer_metrics(tracer):
    """Per-layer metrics (name -> (value, unit)) from one traced round."""
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)

    def outer(name):
        # time of the outermost spans only, so nesting is not counted twice
        return sum(s.end - s.start for s in by_name[name]
                   if not _has_ancestor(s, name))

    def calls(name):
        return len(by_name[name])

    def child(name, of, field="child_s"):
        return sum(getattr(s, field)[of] for s in by_name[name])

    present = tracer.present()
    evals = sum(s.work for s in by_name["ies"])
    pgt = sum(s.work for s in by_name["sample"])
    metrics = {
        "quad.ies_calls": (calls("ies"), "count", "ies"),
        "quad.ies_evals": (evals, "count", "ies"),
        "quad.ies_s": (outer("ies"), "s", "ies"),
        "quad.ns_per_eval": (1e9 * outer("ies") / evals if evals else 0.0, "ns", "ies"),
        "quad.ft_calls": (calls("osc_ft"), "count", "osc_ft"),
        "quad.ft_s": (outer("osc_ft"), "s", "osc_ft"),
        "norms.raw_calls": (calls("raw"), "count", "raw"),
        "norms.raw_s": (outer("raw"), "s", "raw"),
        "norms.raw_self_s": (outer("raw") - child("raw", "ies"), "s", "raw"),
        "norms.grad_calls": (calls("grad"), "count", "grad"),
        "norms.grad_s": (outer("grad"), "s", "grad"),
        "norms.near_diag_calls": (tracer.near_diagonal, "count", "raw"),
        "norms.calls_per_time_set": (calls("raw") / len(tracer.time_sets)
                                     if tracer.time_sets else 0.0, "count", "raw"),
        "model.kernel_calls": (tracer.kernel_calls, "count", "kernel"),
        "model.kernel_s": (tracer.kernel_s, "s", "kernel"),
        "lepage.sample_calls": (calls("sample"), "count", "sample"),
        "lepage.sample_s": (outer("sample"), "s", "sample"),
        "lepage.ns_per_pgt": (1e9 * outer("sample") / pgt if pgt else 0.0, "ns", "sample"),
        "lepage.tailvar_calls": (calls("tailvar"), "count", "tailvar"),
        "lepage.tailvar_s": (outer("tailvar"), "s", "tailvar"),
        "localtime.m2_s": (outer("m2"), "s", "m2"),
        "localtime.m2_self_s": (outer("m2") - child("m2", "raw"), "s", "m2"),
        "localtime.m2_norm_calls": (child("m2", "raw", "child_n"), "count", "m2"),
        "localtime.hist_s": (outer("hist"), "s", "hist"),
        "analysis.lnd_s": (outer("lnd"), "s", "lnd"),
        "analysis.lnd_objective_calls": (child("lnd", "raw", "child_n"), "count", "lnd"),
        "analysis.lnd_gradient_calls": (child("lnd", "grad", "child_n"), "count", "lnd"),
        "analysis.localize_s": (outer("localize"), "s", "localize"),
        "analysis.holder_s": (outer("holder"), "s", "holder"),
        "analysis.ft_s": (outer("ft"), "s", "ft"),
    }
    return {key: (value, unit) for key, (value, unit, span) in metrics.items()
            if span in present}


def _has_ancestor(span, name):
    ancestor = span.parent
    while ancestor is not None:
        if ancestor.name == name:
            return True
        ancestor = ancestor.parent
    return False
