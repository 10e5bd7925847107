"""Print every end-to-end metric and the per-layer stage table in one command.

Run from the repository root:

    python3 bench/report.py [--seed N]

For each workload this makes one untraced and one traced run of
bench/run.py, each as long as BENCHMARK.json's run_seconds, then prints two
markdown tables with workloads as columns: the end-to-end metrics, and the
per-layer stage table with, for each row, the end-to-end metric it should
move and the workloads it moves it on. The per-layer rows include the
program's quality outputs evaluate.kl_lp and optimize.fit_entropy. This is
the baseline stage table that ROADMAP.md cites.
"""

import argparse
import json
import os
import subprocess
import sys

import layers
import run
import workloads


def bench_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit("bench/run.py failed for %s (trace %d):\n%s"
                         % (workload, trace, done.stderr))
    path = os.path.join(run.RUN_DIR, "results", "%s-seed%d-trace%d.json"
                        % (workload, seed, trace))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def fmt(value):
    return "%.4g" % value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = run.SPEC["run_seconds"]
    names = list(workloads.WORKLOADS)
    plain = {w: bench_run(w, args.seed, seconds, 0) for w in names}
    traced = {w: bench_run(w, args.seed, seconds, 1) for w in names}

    rows = []
    for metric, unit in run.END_TO_END_UNITS.items():
        rows.append(["`%s` (%s)" % (metric, unit)] + [
            fmt(plain[w]["result"]["metrics"][metric]["value"]) for w in names])
    rows.append(["ops passed / attempted"] + [
        "%d/%d" % (plain[w]["result"]["attempted"] - plain[w]["result"]["failed"],
                   plain[w]["result"]["attempted"]) for w in names])
    rows.append(["`op_s.tail` (s, reported, not gated)"] + [
        plain[w]["notes"]["op_s.tail"] for w in names])
    print("## End-to-end (seed %d, %g s runs)\n" % (args.seed, seconds))
    print(table(["metric"] + names, rows))

    rows = []
    for metric, unit in run.PER_LAYER_UNITS.items():
        moves, on = layers.MOVES[metric]
        rows.append(["`%s` (%s)" % (metric, unit)] + [
            fmt(traced[w]["result"]["metrics"][metric]["value"]) for w in names]
            + [moves, on])
    print("\n## Stages, traced run (seed %d)\n" % args.seed)
    print(table(["layer metric"] + names + ["moves", "on"], rows))
    prov = plain[names[0]]["provenance"]
    print("\nnumpy %s, %s %s, %d cores, OpenBLAS threads %s, Python %s, source %s"
          % (prov["numpy"], prov["blas"]["name"], prov["blas"]["version"],
             prov["nproc"], prov["openblas_threads"], prov["python"],
             prov["source_sha256"][:12]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
