#!/usr/bin/env python3
"""Build the StructRide benchmark from source and run one workload.

    python3 srbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark package (srbench/CMakeLists.txt, which compiles the structride
library from the repository's sources) into the build directory named by
CARGO_TARGET_DIR, default `.bench_build`; later runs only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits nonzero, printing no result, when the
library sources are missing, the build fails or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "srbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "sim", "engine.h")):
        print("srbench: structride sources not found next to srbench/",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "srbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("srbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    out_dir = build_dir()
    if not build(out_dir):
        return 2
    cmd = [os.path.join(out_dir, "srbench")] + argv
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("srbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
