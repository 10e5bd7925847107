"""emolex benchmark: drive the real CLI on seeded synthetic inputs.

Run from the repository root:

    python3 bench/run.py --workload {expand-large,cv,fit} --seed N \\
        --seconds S --trace {0,1}

Load model: a closed loop with one client. Each operation is one CLI command
(`python -m emolex.cli <cmd> --config ...`) in a fresh child process; the
next starts only after the previous one exits, and only while the --seconds
window is still open; the first always runs. Every operation's artifacts are
checked; a failed check counts as a failed operation and is never dropped.
Every child runs with a fixed glibc mmap threshold, so peak RSS follows the
live arrays, not the heap's history.

With --trace 0 the run reports the end-to-end metrics:
  op_s         median wall time of an operation, child launch to exit
  peak_rss_mb  median over operations of the child's max RSS (os.wait4)
  setup_s      median over at least SETUP_MIN fresh interpreters that
               import emolex and load this workload's embeddings and seed
               lexicon; they run before the operations, spread over the
               window, so they see the same host conditions as op_s
  pass_ratio   operations that exit 0 and pass their checks / attempted
  err_digits   median over operations of -log10 of the largest deviation of
               the operation's result from bench/reference.py
op_s.tail is printed and stored with its percentile and sample count.

With --trace 1 it
alternates untraced operations with operations run through
bench/traced_child.py and reports the per-layer metrics of the traced ones;
trace.overhead_s is the difference of the two medians.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A readable report goes to stderr, and a result file with
provenance to .bench_run/results/. Metric names and units are read from
BENCHMARK.json. Outside the repository (no src/emolex) the run fails without
printing a result.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import layers
import reference
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")

SETUP_MIN = 10
# glibc's initial mmap threshold, set explicitly to turn off the dynamic one,
# which rises with each freed mapping up to 32 MiB. One n^2 float64 array at
# n=2000 is just under that, so whether it came from the heap depended on the
# heap's history, and cv's peak RSS moved by 20-27 MB steps between seeds,
# also with the threshold fixed at 64 MiB. At this value every large array
# is mapped and unmapped, so peak RSS follows the live arrays. The extra page
# faults make cv and fit 5-10% slower than with glibc's defaults.
MMAP_THRESHOLD = 128 * 1024
OP_TIMEOUT_S = 120
TAIL_BEYOND = 10
SETUP_CODE = (
    "import sys\n"
    "from emolex import EmotionSet, load_embeddings, load_seed_lexicon\n"
    "load_embeddings(sys.argv[1])\n"
    "load_seed_lexicon(sys.argv[2], EmotionSet())\n")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    return env


def run_child(argv, log_path):
    """Run one child to completion; return (wall seconds, exit code, rusage)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def time_setup(wl, workdir):
    wall, code, _ = run_child(["-c", SETUP_CODE, wl.inputs.paths["embeddings"],
                               wl.inputs.paths["seed_lexicon"]],
                              os.path.join(workdir, "setup.log"))
    if code != 0:
        with open(os.path.join(workdir, "setup.log"), encoding="utf-8",
                  errors="replace") as fh:
            raise RuntimeError("set-up child exited %d: %s" % (code, fh.read()[-2000:]))
    return wall


def run_op(wl, emolex, index, traced, workdir):
    """One CLI command, its checks, and (when traced) its layer metrics."""
    out = os.path.join(workdir, "op%03d" % index)
    os.makedirs(out)
    cli_argv = wl.argv(out)
    spans_path = os.path.join(workdir, "spans%03d.json" % index)
    if traced:
        argv = [os.path.join(BENCH, "traced_child.py"), spans_path, str(index),
                "--"] + cli_argv
    else:
        argv = ["-m", "emolex.cli"] + cli_argv
    wall, code, usage = run_child(argv, os.path.join(workdir, "op%03d.log" % index))
    op = {"index": index, "traced": traced, "wall_s": wall, "exit": code,
          "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6, "ok": False}
    try:
        if code != 0:
            raise workloads.CheckError("exit code %d" % code)
        op["quality"] = wl.check(out, emolex)
        op["ok"] = True
    except workloads.CheckError as exc:
        op["error"] = str(exc)
    if traced and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        op["layers"] = layers.op_metrics(trace["spans"])
        op["absent_hooks"] = trace["absent"]
        op["layers"].update(layers.quality_metrics(op.get("quality", {})))
    shutil.rmtree(out)
    return op


def tail(values):
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND + 1 samples that percentile is not above the
    median, so the maximum is reported as p100 instead.
    """
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank <= len(ordered) / 2:
        rank = len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def end_to_end(ops, setup_samples):
    plain = [op for op in ops if not op["traced"]]
    walls = [op["wall_s"] for op in plain]
    value, pct, beyond = tail(walls)
    digits = [op["quality"]["err_digits"] for op in plain if op["ok"]]
    metrics = {
        "op_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in plain),
        "setup_s": statistics.median(setup_samples),
        "pass_ratio": sum(op["ok"] for op in plain) / len(plain),
        "err_digits": statistics.median(digits) if digits else 0.0,
    }
    # op_s.tail is reported, not gated: below 21 ops per run it is the
    # maximum of a handful of samples, too noisy to bound.
    notes = {"op_s": "median of %d ops" % len(walls),
             "op_s.tail": "%.6g s: p%.1f of %d ops, %d beyond" % (
                 value, pct, len(walls), beyond),
             "setup_s": "median of %d fresh interpreters" % len(setup_samples),
             "pass_ratio": "fail_ratio %d/%d" % (len(plain) - sum(op["ok"] for op in plain),
                                                len(plain))}
    return metrics, notes


def per_layer(ops):
    traced = [op for op in ops if op["traced"] and "layers" in op]
    plain = [op["wall_s"] for op in ops if not op["traced"]]
    metrics = {}
    for name in PER_LAYER_UNITS:
        values = [op["layers"].get(name, 0.0) for op in traced]
        metrics[name] = statistics.median(values) if values else 0.0
    if traced and plain:
        metrics["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced)
                                       - statistics.median(plain))
    return metrics, {"traced ops": len(traced)}


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "emolex", "**", "*"), recursive=True)):
        if os.path.isfile(path) and "__pycache__" not in path:
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _openblas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*.so")
    for path in glob.glob(pattern):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def provenance(wl, seed, self_check_err):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_commit": _git_commit(), "source_sha256": _source_sha256(),
            "workload_seed": seed, "inputs_sha256": wl.inputs.sha256(),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "nproc": os.cpu_count(), "openblas_threads": _openblas_threads(),
            "python": platform.python_version(), "machine": platform.machine(),
            "reference_self_check_max_err": self_check_err}


def report(args, result, notes, units):
    lines = ["emolex benchmark  workload=%s seed=%d trace=%d  attempted=%d failed=%d"
             % (args.workload, args.seed, args.trace, result["attempted"],
                result["failed"])]
    for name, metric in result["metrics"].items():
        note = notes.get(name, "")
        lines.append("  %-36s %14.6g %-7s %s" % (name, metric["value"], units[name], note))
    for name, value in notes.items():
        if name not in result["metrics"]:
            lines.append("  %s: %s" % (name, value))
    print("\n".join(lines), file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "emolex", "__init__.py")):
        print("bench: no emolex sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import emolex

    workdir = os.path.join(RUN_DIR, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return _run(args, emolex, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, emolex, workdir):
    self_check_err = reference.self_check(emolex)
    wl = workloads.WORKLOADS[args.workload]()
    wl.prepare(args.seed, os.path.join(workdir, "inputs"))

    ops, setup_samples = [], []
    begin = time.perf_counter()
    deadline = begin + args.seconds
    last = 0.0
    while not ops or time.perf_counter() < deadline:
        start = time.perf_counter()
        # Enough set-ups that SETUP_MIN are done by the end of the window if
        # the next round takes as long as the last; at least one per round.
        share = (start - begin + last) / args.seconds
        due = min(SETUP_MIN, math.ceil(SETUP_MIN * share)) - len(setup_samples)
        for _ in range(max(1, due)):
            setup_samples.append(time_setup(wl, workdir))
        for traced in ((False, True) if args.trace else (False,)):
            ops.append(run_op(wl, emolex, len(ops), traced, workdir))
        last = time.perf_counter() - start
    while len(setup_samples) < SETUP_MIN:
        setup_samples.append(time_setup(wl, workdir))

    if args.trace:
        metrics, notes = per_layer(ops)
        units = PER_LAYER_UNITS
    else:
        metrics, notes = end_to_end(ops, setup_samples)
        units = END_TO_END_UNITS
    failed = sum(not op["ok"] for op in ops)
    absent = sorted({h for op in ops for h in op.get("absent_hooks", [])})
    if absent:
        notes["absent hooks"] = ", ".join(absent)
    errors = sorted({op["error"] for op in ops if "error" in op})
    if errors:
        notes["errors"] = "; ".join(errors)
    result = {"correct": failed == 0 and self_check_err <= reference.SELF_CHECK_TOL,
              "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}

    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    path = os.path.join(RUN_DIR, "results", "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "notes": notes, "workload": args.workload,
                   "seconds": args.seconds, "provenance": provenance(
                       wl, args.seed, self_check_err),
                   "setup_samples_s": setup_samples, "ops": ops}, fh, indent=2)
    report(args, result, notes, units)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
