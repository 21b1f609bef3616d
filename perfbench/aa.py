#!/usr/bin/env python3
"""A/A check: two sets of benchmark runs of one build must agree.

    python3 perfbench/aa.py                      # every workload, 2 x 10
    python3 perfbench/aa.py --workloads chip-shared --runs 5 --sets 1

Runs the benchmark command from BENCHMARK.json `--runs` times per
workload and set, seed i on the i-th run of every set, and reports for
each workload and end-to-end metric the median and quartiles of each
set and the spread (Q3 - Q1) / median. The sets agree when every
spread is within the metric's bound and no later set's median is
worse than the first set's by more than the bound. Modeled
metrics (model_*) repeat exactly for a seed, so they must be
identical between sets. Exits 1 when any set disagrees or any run
fails. Use --json FILE to keep the raw per-run metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    """Q1, median, Q3 as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """(Q3 - Q1) / median; 0 for a zero median."""
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (later - first) / abs(first)
    return -change if better == "higher" else change


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", trace]
    proc = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result


def evaluate(bench, sets):
    """sets: list of {metric: [values]}; returns (rows, ok)."""
    rows, ok = [], True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        first = statistics.median(sets[0][name])
        for k, st in enumerate(sets):
            values = st[name]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            worse = worse_by(first, statistics.median(values),
                             metric["better"])
            agree = s <= bound and worse <= bound
            if name.startswith("model_") and values != sets[0][name]:
                agree = False
            ok = ok and agree
            rows.append((name, k + 1, med, q1, q3, s, bound, worse, agree))
    return rows, ok


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--json", help="write the raw per-run results here")
    args = ap.parse_args()

    raw, all_ok = {}, True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in bench["end_to_end"]}
            for seed in range(1, args.runs + 1):
                rc, result = run_once(bench, workload, seed, args.seconds, "0")
                good = rc == 0 and result and result.get("correct")
                print(f"{workload} set {s + 1} seed {seed}: "
                      f"{'ok' if good else 'FAILED (exit %d)' % rc}",
                      file=sys.stderr)
                if not good:
                    all_ok = False
                    continue
                raw.setdefault(workload, []).append(
                    {"set": s + 1, "seed": seed, **result})
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        if any(not v for st in sets for v in st.values()):
            print(f"{workload}: no complete set of runs")
            all_ok = False
            continue
        rows, ok = evaluate(bench, sets)
        all_ok = all_ok and ok
        print(f"\n{workload}: {'AGREE' if ok else 'DISAGREE'}")
        print(f"  {'metric':22} set {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>7} {'bound':>6} {'worse':>7}")
        for name, k, med, q1, q3, s, bound, worse, agree in rows:
            print(f"  {name:22} {k:3} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{s:7.4f} {bound:6.3f} {worse:+7.4f}"
                  f"{'' if agree else '  <-- outside bound'}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
