#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-grid --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the simulator library from src/) into
.bench_build/ (or $CARGO_TARGET_DIR); later runs rebuild only what
changed. Build output goes to stderr, so the benchmark's report,
ending in one JSON line, is all that reaches stdout. The exit code is
the perfbench binary's: 0 when every output check passed, 1 when one failed,
2 on bad arguments or when the sources or the build are missing.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run must end well inside 180 s


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configure and build perfbench; return the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no simulator sources (src/) next to perfbench/",
              file=sys.stderr)
        return None
    jobs = str(max(1, os.cpu_count() or 1))
    env = scratch_env(out)
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT, env=env, timeout=850).returncode
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(cmd)}: {err}", file=sys.stderr)
            return None
        if rc != 0:
            print(f"run.py: {' '.join(cmd)} failed ({rc})", file=sys.stderr)
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def scratch_env(out):
    """The environment with TMPDIR inside the build directory, so the
    compiler's and the benchmark's temporary files stay in the tree."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def git_describe():
    """`git describe` of this tree, or a note when it is no checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], text=True,
                              capture_output=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown (not a git checkout)"
        desc = git("describe", "--always", "--dirty", "--tags")
        return desc.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    trace_dir = os.path.join(out, "perfbench-out")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", trace_dir, "--git-describe", git_describe()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, env=scratch_env(out),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
