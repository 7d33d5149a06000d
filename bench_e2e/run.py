#!/usr/bin/env python3
"""Builds and runs the end-to-end reactive-workload benchmark.

Run from the repository root:

    python3 bench_e2e/run.py --workload covid_surge --seed 1 --seconds 10 --trace 0
    python3 bench_e2e/run.py --smoke     # all workloads at toy size, all checks

The engine is compiled from ../src into .bench_build/e2e (CMake, the
repository's default RelWithDebInfo build type) before every run; an
up-to-date build costs about a second. The benchmark binary's standard
output is passed through, so its last line is the result JSON. Build output
goes to standard error. See bench_e2e/README.md for metrics and workloads.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("bench_e2e: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "trigger", "database.h")):
        fail("engine sources (src/) not found next to bench_e2e/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit when available, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for base in ("src", "bench_e2e"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-file", help="also write every raw span (TSV)")
    p.add_argument("--smoke", action="store_true",
                   help="every workload at toy size with every check")
    args = p.parse_args()
    if not args.smoke and not args.workload:
        p.error("--workload is required")

    build()
    cmd = [BINARY, "--work-dir", WORK_DIR]
    if args.smoke:
        cmd.append("--smoke")
        if args.workload:
            cmd += ["--workload", args.workload]
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--commit", source_id()]
        if args.trace_file:
            cmd += ["--trace-file", os.path.abspath(args.trace_file)]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
