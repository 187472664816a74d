"""Run each workload k times on one commit and summarise the spread.

    python3 perfbench/compare.py --runs 10
    python3 perfbench/compare.py --workloads heights --runs 5 --first-seed 100
    python3 perfbench/compare.py --runs 3 --trace 1

Each run is `run.py --workload W --seed S` with seeds first-seed ..
first-seed+k-1 and the run length of BENCHMARK.json.  For every metric
the summary gives the median and the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median.  For an
end-to-end metric of BENCHMARK.json it also says whether the spread is
inside the metric's bound, and inside a third of it (the margin the
bounds were set with).  The share of failed operations must be the
same in every run.  Exit status 0 when every spread is inside its
bound, every run is correct and the failed share never changes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit("run failed (%d): %s\n%s" % (proc.returncode,
                                                      " ".join(cmd), proc.stderr))
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    values = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            values[parts[1]] = (float(parts[2]), parts[3])
    return result, values


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        per_metric, shares, correct = {}, set(), True
        for k in range(args.runs):
            seed = args.first_seed + k
            result, values = run_once(workload, seed, bench["run_seconds"],
                                      args.trace)
            correct &= result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for name, (value, unit) in values.items():
                per_metric.setdefault(name, (unit, []))[1].append(value)
            print("  %s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (n, v) for n, (v, _) in values.items())),
                  flush=True)
        print("%s: %d runs, correct=%s, failed share %s" % (
            workload, args.runs, correct,
            "/".join("%.6f" % s for s in sorted(shares))))
        print("  %-26s %14s %14s %14s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, (unit, values) in per_metric.items():
            med, q1, q3, spread = summarise(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = ("steady" if spread < bound / 3 else
                           "inside bound" if spread <= bound else "TOO WIDE")
                ok &= spread <= bound
            print("  %-26s %14.6g %14.6g %14.6g %8.4f %6s  %s %s" % (
                name, med, q1, q3, spread,
                "" if bound is None else "%.2f" % bound, verdict, unit))
        ok &= correct and len(shares) == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
