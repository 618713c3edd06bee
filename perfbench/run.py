#!/usr/bin/env python3
"""Build and run the hylo training benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout. Builds the library and the
benchmark program from source into .bench_build/perfbench (CMake, Release),
pins the library thread pool through HYLO_NUM_THREADS, clears every other
HYLO_* variable so the environment cannot switch library subsystems on, and
runs the program. Its last stdout line is the result object; the line before
it is the run record (provenance, units, sample counts, failure reasons).
Records and Chrome traces land in .bench_build/out.

The benchmark's own tests:
    cmake --build .bench_build/perfbench --target perfbench_tests
    ctest --test-dir .bench_build/perfbench
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
# Pool size for every run: pinned, and never above the CPUs we may use. One
# thread: under host contention multi-threaded throughput was seen to halve
# while single-threaded throughput moved by a seventh.
THREADS = 1
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no hylo sources under {ROOT / 'src'}: "
             "run from a repository checkout")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "hylo_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("HYLO_")}
    env["HYLO_NUM_THREADS"] = str(min(THREADS, len(os.sched_getaffinity(0))))
    cmd = [str(BUILD / "hylo_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT),
           "--git-rev", git_rev()]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
