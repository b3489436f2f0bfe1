#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds perfbench (a Release build of the safeopt libraries plus the benchmark
binary) under $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
only re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Traced runs write their spans under
the build directory's traces/ folder.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run of a workload, set-up and checks included, stays well below this.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def step(command):
    """Runs one build step with its output on stderr; exits on failure."""
    result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    if result.returncode != 0:
        sys.stderr.write("perfbench: build step failed: %s\n"
                         % " ".join(command))
        sys.exit(result.returncode or 1)


def build(out):
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        sys.stderr.write("perfbench: no safeopt sources next to %s\n" % HERE)
        sys.exit(2)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
             + generator)
    # Two compile jobs: the machine is shared and the build is one-off.
    step(["cmake", "--build", out, "--target", "perfbench", "-j", "2"])


def main():
    out = build_dir()
    build(out)
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [os.path.join(out, "perfbench")] + sys.argv[1:] + [
        "--trace-dir", traces]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
