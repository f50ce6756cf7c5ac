"""Benchmark entry point for `rhmsp`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from `src/` of
that checkout; nothing is installed.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
The full record of the run (round times, failures, check errors) is also
written to `perfbench/results/`.

Every process runs with the BLAS and OpenMP pools pinned to one thread.
`setup_s` is the median, over several fresh processes, of the time from
starting a workload process to its first timed operation; one more
throwaway process runs first so that byte-compiling the package and
loading numpy and scipy from disk do not land in the first sample.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("norm_queries", "local_moments", "paths")
SETUP_PROBES = 5          # fresh processes timed for setup_s, after one warm-up
PROCESS_TIMEOUT = 170.0   # seconds; a workload process past this is stopped
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _env():
    env = dict(os.environ)
    for key in PINNED:
        env[key] = "1"
    env.pop("PYTHONPATH", None)   # the worker puts src/ first itself
    return env


def _start(args, probe):
    cmd = [sys.executable, WORKER, "--root", ROOT, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process did not reach its first operation")
    return proc, setup


def _finish(proc):
    try:
        out, _ = proc.communicate(timeout=PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process timed out")
    if proc.returncode != 0:
        raise RuntimeError("workload process exited with %d" % proc.returncode)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "rhmsp", "__init__.py")):
        print("run.py: no src/rhmsp in %s; run from the root of a checkout" % ROOT,
              file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        _finish(_start(args, probe=True)[0])          # warm-up, not timed
        for _ in range(SETUP_PROBES):
            proc, setup = _start(args, probe=True)
            _finish(proc)
            setups.append(setup)
    proc, setup = _start(args, probe=False)
    setups.append(setup)
    lines = _finish(proc).strip().splitlines()
    record = json.loads(lines[-1])

    metrics = record["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        record["setups"] = setups
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace)
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for message in record["errors"][:20]:
        print("check failed: %s" % message, file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        sys.exit(1)
