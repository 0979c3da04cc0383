"""Steadiness check and results file for the senlab benchmark.

    python3 bench/steady.py --workload series --runs 10
    python3 bench/steady.py --workload all --runs 10 --traced --out bench/results/BENCH_1.json

Runs bench/run.py in two sets of k runs per workload, each set with seeds
1..k (the run length comes from BENCHMARK.json).  For each set it prints,
per end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
beside the bound; then how far the second median is worse than the first,
beside the bound, and the share of failed operations in every run.
--traced adds one traced run per workload.  --out writes every run, with the
git sha (and whether the working tree differed from it), nproc and the
Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("run failed (%d): %s\n%s" % (proc.returncode, " ".join(cmd),
                                                        proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update({"workload": workload, "seed": seed, "trace": trace})
    return result


def git(*args):
    """Output of a git command in the repository, or None outside a checkout."""
    try:
        proc = subprocess.run(["git"] + list(args), cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def summarize(runs):
    """{metric: (median, quartile spread, values)} over a set of runs."""
    by_metric = {}
    for r in runs:
        for name, m in r["metrics"].items():
            by_metric.setdefault(name, []).append(m["value"])
    rows = {}
    for name, values in by_metric.items():
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        rows[name] = (med, (q3 - q1) / med if med else float("nan"), values)
    return rows


def verdict(share, bound):
    if share <= bound / 3:
        return "ok"
    return "within bound" if share <= bound else "TOO WIDE"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" \
        else [args.workload]
    status = git("status", "--porcelain")
    record = {"git_sha": git("rev-parse", "HEAD") or "unknown",
              "worktree_changed": status is None or bool(status),
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "run_seconds": seconds, "runs": []}
    for workload in names:
        medians = []
        for number in range(1, SETS + 1):
            runs = [one_run(workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
            for r in runs:
                r["set"] = number
            record["runs"].extend(runs)
            shares = {r["failed"] / r["attempted"] for r in runs}
            print("%s, set %d: %d runs, failed share %s, correct %s" % (
                workload, number, len(runs), sorted(shares),
                all(r["correct"] for r in runs)))
            rows = summarize(runs)
            for name, (med, spread, values) in rows.items():
                print("  %-14s median %12.4f  spread %6.3f  bound %s  %s\n    runs %s"
                      % (name, med, spread, bounds[name], verdict(spread, bounds[name]),
                         " ".join("%.4g" % v for v in values)))
            medians.append({name: row[0] for name, row in rows.items()})
            sys.stdout.flush()
        print("%s, set %d against set 1 (share worse):" % (workload, SETS))
        for name, first in medians[0].items():
            change = (medians[-1][name] - first) / first
            worse = -change if better[name] == "higher" else change
            print("  %-14s %+7.3f  bound %s  %s" % (name, worse, bounds[name],
                                                    verdict(worse, bounds[name])))
        if args.traced:
            record["runs"].append(one_run(workload, 1, seconds, 1))
        sys.stdout.flush()
    if args.out:
        with open(os.path.join(ROOT, args.out), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
