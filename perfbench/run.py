#!/usr/bin/env python3
"""End-to-end benchmark of aa_serve (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload drift|tenants|replan --seed N \
        --seconds S --trace 0|1

Builds the Release aa_serve and the benchmark program from the sources in
this checkout (into .bench_build/perfbench), then runs it. The last
line of stdout is the JSON result. Exits non-zero, without a result, when
the sources are missing, the build fails, or the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")
SERVER = os.path.join(BUILD_DIR, "aa_tools", "aa_serve")
REQUIRED = ["src/CMakeLists.txt", "tools/CMakeLists.txt", "tools/aa_serve.cpp"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds aa_serve + perfbench (incremental)."""
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("repository sources missing: " + ", ".join(missing))
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--parallel", jobs,
              "--target", "aa_serve", "perfbench"]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, cwd=ROOT, stdout=log,
                               stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (full log: %s)" % log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["drift", "tenants", "replan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    build()
    sys.stdout.flush()
    workdir = os.path.join(BUILD_DIR, "out")
    code = subprocess.call(
        [PROGRAM, "--server", SERVER, "--workdir",
         os.path.relpath(workdir, ROOT), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=ROOT)
    sys.exit(code)


if __name__ == "__main__":
    main()
