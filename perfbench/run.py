#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload suite|bigfn|serve|exec \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds an
optimised (Release) copy of the optimizer and the perfbench program under
.bench_build/perfbench; later runs rebuild only what changed. Its standard
output is passed through: '#' note lines, then one JSON result
object as the last line.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no optimizer sources (src/) beside perfbench/; nothing to measure")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: the last stdout line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    exe = os.path.join(BUILD, "perfbench")
    return exe if os.path.isfile(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that a planted PRE miscompile raises the "
                         "suite error rate and the seed's does not")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    os.chdir(ROOT)
    exe = build()
    if exe is None:
        return 1

    # Count digests are kept per binary: a rebuilt program may legitimately
    # count differently, the same binary on the same seed may not.
    with open(exe, "rb") as f:
        binary_id = hashlib.sha256(f.read()).hexdigest()[:16]
    state = os.path.join(".bench_build", "state", binary_id)
    traces = os.path.join(".bench_build", "traces")
    work = os.path.join(".bench_build", "run")
    for d in (state, traces, work):
        os.makedirs(d, exist_ok=True)

    cmd = [exe, "--root", "."]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--state-dir", state, "--trace-dir", traces,
                "--work-dir", work]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("the run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
