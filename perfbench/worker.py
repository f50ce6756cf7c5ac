"""One workload process: import, build inputs, timed rounds, checks.

Started by `run.py` and by the smoke test in `selftest.py`.  It prints
`READY` once the package is imported and the inputs are built, so the
parent can time the set-up, and then, unless `--probe` is given, one JSON
line with the run's result.

The timed phase is a closed loop with one caller: each operation starts
when the previous one has returned.  Rounds repeat until the next round
would end past `--seconds` (at least one round runs).  With `--trace 1` the
phase runs pairs of an untraced and a traced run of round 0, alternating
which goes first; the traced counts are then the same on every traced
round, and the overhead is the difference of the two medians.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import spans
import workloads

MAX_ROUNDS = 64   # inputs built at set-up; a run stops early if it uses them all


def import_program(root):
    """Import `rhmsp` from the checkout's `src`, and only from there."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import rhmsp
    if not os.path.abspath(rhmsp.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError("rhmsp imported from %s, not from %s" % (rhmsp.__file__, src))
    import rhmsp.norms  # noqa: F401  (entry point the checks call directly)
    return rhmsp


def run_round(ops, op_seconds=None):
    """Run one round; returns (wall seconds, cpu seconds, outputs, failures).
    `op_seconds`, if given, collects the time of each operation by kind."""
    outputs, failures = [], []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        t_op = time.perf_counter()
        try:
            outputs.append(op.call())
        except Exception as exc:   # a failed operation is counted, not fatal
            outputs.append(None)
            failures.append("%s: %s: %s" % (op.kind, type(exc).__name__, exc))
        if op_seconds is not None:
            op_seconds.setdefault(op.kind, []).append(time.perf_counter() - t_op)
    return time.perf_counter() - t0, time.process_time() - cpu0, outputs, failures


def traced_round(ops):
    """Run one round with the per-layer spans installed."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        wall, _cpu, _outputs, failures = run_round(ops)
    finally:
        tracer.uninstall()
    return wall, tracer, failures


def check_round(ops, outputs, deep):
    errors = []
    for op, out in zip(ops, outputs):
        if out is None:
            continue
        for fn in (op.check, op.deep_check if deep else None):
            if fn is None:
                continue
            try:
                fn(out)
            except Exception as exc:
                errors.append("%s: %s" % (op.kind, "".join(
                    traceback.format_exception_only(type(exc), exc)).strip()))
    return errors


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="exit after set-up")
    args = ap.parse_args(argv)

    rh = import_program(args.root)
    rounds = [workloads.WORKLOADS[args.workload](rh, args.seed, r)
              for r in range(1 if args.trace else MAX_ROUNDS)]
    print("READY", flush=True)
    if args.probe:
        return 0

    walls, cpus, attempted, failed = [], [], 0, 0
    failures, errors = [], []
    result = {}
    if args.trace:
        traced_walls, layer_runs, counts = [], [], None
        start = time.perf_counter()
        while True:
            # alternate which of the pair runs first, so that first-call
            # costs (lazy imports, allocator warm-up) fall on both sides
            traced_first = len(walls) % 2 == 1
            if traced_first:
                twall, tracer, tfails = traced_round(rounds[0])
            wall, cpu, outputs, fails = run_round(rounds[0])
            if not traced_first:
                twall, tracer, tfails = traced_round(rounds[0])
            if not walls:
                errors += check_round(rounds[0], outputs, deep=True)
            walls.append(wall)
            cpus.append(cpu)
            traced_walls.append(twall)
            layers = spans.layer_metrics(tracer)
            these = {k: v for k, (v, unit) in layers.items() if unit == "count"}
            if counts is not None and these != counts:
                errors.append("per-layer counts differ between traced rounds")
            counts = these
            layer_runs.append(layers)
            attempted += 2 * len(rounds[0])
            failed += len(fails) + len(tfails)
            failures += fails + tfails
            elapsed = time.perf_counter() - start
            if elapsed + wall + twall > args.seconds:
                break
        metrics = {}
        for key, (value, unit) in layer_runs[0].items():
            if unit == "count":
                metrics[key] = (value, unit)
            else:
                metrics[key] = (statistics.median(run[key][0] for run in layer_runs), unit)
        metrics["run.cpu_s"] = (statistics.median(cpus), "s")
        metrics["run.traced_wall_s"] = (statistics.median(traced_walls), "s")
        metrics["run.trace_overhead_s"] = (statistics.median(traced_walls)
                                           - statistics.median(walls), "s")
        result["untraced_walls"] = walls
        result["traced_walls"] = traced_walls
    else:
        start = time.perf_counter()
        kept = []
        op_seconds = {}
        for ops in rounds:
            wall, cpu, outputs, fails = run_round(ops, op_seconds if not walls else None)
            walls.append(wall)
            cpus.append(cpu)
            kept.append((ops, outputs))
            attempted += len(ops)
            failed += len(fails)
            failures += fails
            if time.perf_counter() - start + wall > args.seconds:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for r, (ops, outputs) in enumerate(kept):
            errors += check_round(ops, outputs, deep=(r == 0))
        metrics = {"wall_s": (statistics.median(walls), "s"),
                   "peak_rss_mb": (rss_mb, "MB")}
        result["walls"] = walls
        result["cpus"] = cpus
        result["round0_op_seconds"] = op_seconds

    result.update({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "rounds": len(walls),
        "failures": sorted(set(failures)),
        "errors": errors,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
