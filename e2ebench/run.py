#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md here).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
repository's libraries and the qualbench harness with CMake (Release) under
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench; later runs only
rebuild what changed. Build output goes to stderr. The last line of stdout
is qualbench's JSON result; the exit status is qualbench's, or 1 when the
build fails or qualbench overruns its time limit.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("whole_program", "separate_compilation", "editor_session")
# qualbench must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_quietly(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("run.py: %s" % err, file=sys.stderr)
        return False
    return done.returncode == 0


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quietly(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            fail("configuring the benchmark failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quietly(["cmake", "--build", build_dir, "--target",
                        "qualbench", "-j", jobs], BUILD_TIMEOUT_S):
        fail("building the benchmark failed")
    return os.path.join(build_dir, "qualbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2ebench")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "run")
    os.makedirs(out_dir, exist_ok=True)

    # Relative paths keep the server's unix socket path short.
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.relpath(out_dir, ROOT),
           "--data-dir", os.path.relpath(BENCH_DIR, ROOT),
           "--examples-dir", os.path.join("examples", "programs")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            universal_newlines=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("qualbench overran %d s" % RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("qualbench exited with status %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("qualbench printed a malformed result")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
