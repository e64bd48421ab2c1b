#!/usr/bin/env python3
"""consim performance benchmark: one command per workload run.

Run from the repository root:

    python3 perfbench/run.py --workload paper16 --seed 1 --seconds 30 --trace 0

It builds the simulator library and the benchmark program from source
into .bench_build/ (CMake, Release; a no-op when up to date), runs the
workload in one child process, and passes the child's output through.
The last line printed is one JSON object with the keys correct,
attempted, failed and metrics. --trace 1 also writes the span log to
.bench_out/. NOTES.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("paper16", "scale256", "fig_sweep", "ckpt_resume")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources next to perfbench/; "
             "run from the root of a full consim checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(os.cpu_count() or 1), "--target", "consim_perfbench"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
    return os.path.join(BUILD_DIR, "consim_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be 1..60")

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.json")]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")]
    # CONSIM_* knobs change what the library simulates; the benchmark
    # pins every setting itself.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CONSIM_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        # Never print a result line for a run that did not finish.
        for line in lines:
            if not line.startswith('{"correct"'):
                print(line)
        fail(f"consim_perfbench exited {proc.returncode} without a result")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
