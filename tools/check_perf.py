#!/usr/bin/env python3
"""Gate a fresh bench/sim_perf run against the committed BENCH_sim.json.

Compares per-cell host packets/sec: a cell slower than the baseline by
more than --fail-below (default 30%) fails the gate; slower by more
than --warn-below (default 10%) prints a warning. Cells present in only
one file are reported but never fail (the cell set may legitimately
grow). A fresh cell with "identical": false always fails — that means
a repeat run of the same cell produced different modeled results (the
simulator is nondeterministic), which no amount of timing noise can
excuse.

When the two documents record different "host_threads" counts the
machines are not comparable: every timing failure is downgraded to a
warning (divergence still fails — determinism does not depend on the
host). This closes the 1-CPU-container caveat: a baseline measured on
a laptop never hard-fails a single-core CI runner, and vice versa.

Exit status: 0 = pass (warnings allowed), 1 = regression or divergence,
2 = malformed input.
"""

import argparse
import json
import sys


def load_doc(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    cells = doc.get("cells")
    if not isinstance(cells, list):
        raise ValueError(f"{path}: no 'cells' array")
    out = {}
    for cell in cells:
        name = cell.get("name")
        pps = cell.get("pps")
        if not name or not isinstance(pps, (int, float)) or pps <= 0:
            raise ValueError(f"{path}: malformed cell {cell!r}")
        out[name] = cell
    return out, doc.get("host_threads")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_sim.json")
    ap.add_argument("--fresh", required=True,
                    help="JSON from this run of bench/sim_perf")
    ap.add_argument("--fail-below", type=float, default=0.70,
                    help="fail when fresh pps < RATIO * baseline "
                         "(default 0.70, i.e. >30%% regression)")
    ap.add_argument("--warn-below", type=float, default=0.90,
                    help="warn when fresh pps < RATIO * baseline "
                         "(default 0.90, i.e. >10%% regression)")
    args = ap.parse_args()

    try:
        base, base_threads = load_doc(args.baseline)
        fresh, fresh_threads = load_doc(args.fresh)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"check_perf: {e}", file=sys.stderr)
        return 2

    hosts_differ = (base_threads is not None
                    and fresh_threads is not None
                    and base_threads != fresh_threads)
    if hosts_differ:
        print(f"  NOTE host_threads differ (baseline {base_threads}, "
              f"fresh {fresh_threads}): timing regressions are "
              f"warnings, not failures")

    failures = []
    warnings = []
    for name, cell in sorted(fresh.items()):
        if cell.get("identical") is not True:
            failures.append(
                f"{name}: repeat run DIVERGED from the timed run")
            continue
        ref = base.get(name)
        if ref is None:
            print(f"  {name}: new cell (no baseline), "
                  f"{cell['pps']:.0f} pps")
            continue
        ratio = cell["pps"] / ref["pps"]
        line = (f"{name}: {cell['pps']:.0f} pps vs baseline "
                f"{ref['pps']:.0f} ({ratio:.2f}x)")
        if ratio < args.fail_below:
            if hosts_differ:
                warnings.append(line + " [host mismatch: warn only]")
            else:
                failures.append(line)
        elif ratio < args.warn_below:
            warnings.append(line)
        else:
            print(f"  ok   {line}")
    for name in sorted(set(base) - set(fresh)):
        print(f"  {name}: in baseline only (not timed this run)")

    for line in warnings:
        print(f"  WARN {line}")
    for line in failures:
        print(f"  FAIL {line}")
    if failures:
        print(f"check_perf: {len(failures)} cell(s) regressed past "
              f"{(1 - args.fail_below) * 100:.0f}%", file=sys.stderr)
        return 1
    print(f"check_perf: pass ({len(warnings)} warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
